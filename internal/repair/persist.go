package repair

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"gdr/internal/relation"
)

// LockedCell identifies a confirmed-correct cell by tuple id and attribute
// position (Changeable = false in the paper's bookkeeping).
type LockedCell struct {
	Tid int
	Pos int
}

// PreventedCell carries one cell's prevented list: the interned ids of the
// values the user has confirmed wrong for it. The ids are only meaningful
// against the dictionaries of the instance they were snapshotted with.
type PreventedCell struct {
	Tid    int
	Pos    int
	Values []relation.VID
}

// CellState snapshots the generator's per-cell feedback bookkeeping — the
// locked set and the prevented lists — in deterministic (tid, attribute
// position) order, values ascending. The locked cells come out of the
// bitset already in that order; the prevented lists are sorted. Everything
// else the generator holds (similarity memo, co-occurrence indexes) is a
// cache over the instance and is rebuilt lazily after a restore.
func (g *Generator) CellState() (locked []LockedCell, prevented []PreventedCell) {
	n := 0
	for _, w := range g.locked {
		n += bits.OnesCount64(w)
	}
	if n > 0 {
		locked = make([]LockedCell, 0, n)
	}
	arity := g.db.Schema.Arity()
	for wi, w := range g.locked {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			locked = append(locked, LockedCell{Tid: i / arity, Pos: i % arity})
		}
	}
	for c, vals := range g.prevented {
		if len(vals) == 0 {
			continue
		}
		pc := PreventedCell{Tid: c.tid, Pos: c.ai, Values: make([]relation.VID, 0, len(vals))}
		for v := range vals {
			pc.Values = append(pc.Values, v)
		}
		slices.Sort(pc.Values)
		prevented = append(prevented, pc)
	}
	slices.SortFunc(prevented, func(a, b PreventedCell) int {
		return cmp.Or(cmp.Compare(a.Tid, b.Tid), cmp.Compare(a.Pos, b.Pos))
	})
	return locked, prevented
}

// RestoreCellState installs snapshotted feedback bookkeeping into a fresh
// generator. Cells and value ids are validated against the instance, so a
// snapshot that disagrees with its own rows/dictionaries errors cleanly.
func (g *Generator) RestoreCellState(locked []LockedCell, prevented []PreventedCell) error {
	checkCell := func(tid, ai int) error {
		if tid < 0 || tid >= g.db.N() {
			return fmt.Errorf("repair: cell tuple id %d outside instance of %d tuples", tid, g.db.N())
		}
		if ai < 0 || ai >= g.db.Schema.Arity() {
			return fmt.Errorf("repair: cell attribute position %d outside schema arity %d", ai, g.db.Schema.Arity())
		}
		return nil
	}
	for _, c := range locked {
		if err := checkCell(c.Tid, c.Pos); err != nil {
			return err
		}
		g.lock(c.Tid, c.Pos)
	}
	for _, c := range prevented {
		if err := checkCell(c.Tid, c.Pos); err != nil {
			return err
		}
		m := g.prevented[cellPos{c.Tid, c.Pos}]
		if m == nil {
			m = make(map[relation.VID]bool, len(c.Values))
			g.prevented[cellPos{c.Tid, c.Pos}] = m
		}
		for _, v := range c.Values {
			if int(v) >= g.db.Dict(c.Pos).Len() {
				return fmt.Errorf("repair: prevented VID %d outside dictionary of attribute %d (len %d)",
					v, c.Pos, g.db.Dict(c.Pos).Len())
			}
			m[v] = true
		}
	}
	return nil
}
