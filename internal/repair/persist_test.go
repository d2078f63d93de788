package repair

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gdr/internal/cfd"
	"gdr/internal/relation"
)

// refCellState is the map-and-sort CellState the locked bitset replaced:
// the locked set as a cell map, ranged and then sorted by (tid, pos), and
// the prevented lists collected from their maps and sorted the same way.
// It is the order reference for CellState.
func refCellState(lockedSet map[cellPos]bool, prev map[cellPos]map[relation.VID]bool) (locked []LockedCell, prevented []PreventedCell) {
	for c := range lockedSet {
		locked = append(locked, LockedCell{Tid: c.tid, Pos: c.ai})
	}
	sort.Slice(locked, func(i, j int) bool {
		if locked[i].Tid != locked[j].Tid {
			return locked[i].Tid < locked[j].Tid
		}
		return locked[i].Pos < locked[j].Pos
	})
	for c, vals := range prev {
		if len(vals) == 0 {
			continue
		}
		pc := PreventedCell{Tid: c.tid, Pos: c.ai, Values: make([]relation.VID, 0, len(vals))}
		for v := range vals {
			pc.Values = append(pc.Values, v)
		}
		sort.Slice(pc.Values, func(i, j int) bool { return pc.Values[i] < pc.Values[j] })
		prevented = append(prevented, pc)
	}
	sort.Slice(prevented, func(i, j int) bool {
		if prevented[i].Tid != prevented[j].Tid {
			return prevented[i].Tid < prevented[j].Tid
		}
		return prevented[i].Pos < prevented[j].Pos
	})
	return locked, prevented
}

// TestCellStateMatchesReference drives random locks, prevents and inserts
// (so locked cells land past the bitset's initial extent, and word
// boundaries fall mid-tuple at arities 3 and 5) and checks that CellState
// reports exactly what the map-and-sort reference does, in the same order,
// that Locked agrees with the shadow set on every cell, and that a
// restored generator reports the same state.
func TestCellStateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	vals := []string{"p", "q", "r", "s"}
	for _, attrs := range [][]string{{"A", "B", "C"}, {"A", "B", "C", "D", "E"}} {
		schema := relation.MustSchema("R", attrs)
		randTuple := func() relation.Tuple {
			tup := make(relation.Tuple, len(attrs))
			for i := range tup {
				tup[i] = vals[r.Intn(len(vals))]
			}
			return tup
		}
		for trial := 0; trial < 8; trial++ {
			db := relation.NewDB(schema)
			for i := 0; i < 30+r.Intn(60); i++ {
				db.MustInsert(randTuple())
			}
			rules := []*cfd.CFD{
				cfd.MustNew("k1", []string{"A"}, "B", map[string]string{"A": "p", "B": "q"}),
				cfd.MustNew("k2", []string{"A"}, "C", map[string]string{"A": cfd.Wildcard, "C": cfd.Wildcard}),
			}
			e, err := cfd.NewEngine(db, rules)
			if err != nil {
				t.Fatal(err)
			}
			g := NewGenerator(e)
			shadow := map[cellPos]bool{}
			for step := 0; step < 300; step++ {
				tid, ai := r.Intn(db.N()), r.Intn(len(attrs))
				switch r.Intn(5) {
				case 0:
					g.Prevent(tid, attrs[ai], vals[r.Intn(len(vals))])
				case 1:
					if _, _, err := g.Insert(randTuple()); err != nil {
						t.Fatal(err)
					}
				default:
					g.Lock(tid, attrs[ai])
					shadow[cellPos{tid, ai}] = true
				}
			}
			for tid := 0; tid < db.N(); tid++ {
				for ai, attr := range attrs {
					if g.Locked(tid, attr) != shadow[cellPos{tid, ai}] {
						t.Fatalf("Locked(%d, %s) = %v, shadow set says %v", tid, attr, !shadow[cellPos{tid, ai}], shadow[cellPos{tid, ai}])
					}
				}
			}
			locked, prevented := g.CellState()
			wantLocked, wantPrevented := refCellState(shadow, g.prevented)
			if !reflect.DeepEqual(locked, wantLocked) || !reflect.DeepEqual(prevented, wantPrevented) {
				t.Fatalf("arity %d trial %d: CellState diverges from the map-and-sort reference", len(attrs), trial)
			}

			re, err := cfd.NewEngine(db.Clone(), rules)
			if err != nil {
				t.Fatal(err)
			}
			rg := NewGenerator(re)
			if err := rg.RestoreCellState(locked, prevented); err != nil {
				t.Fatal(err)
			}
			if l2, p2 := rg.CellState(); !reflect.DeepEqual(l2, locked) || !reflect.DeepEqual(p2, prevented) {
				t.Fatalf("arity %d trial %d: restored generator reports different cell state", len(attrs), trial)
			}
		}
	}
}
