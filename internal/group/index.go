package group

import (
	"sort"

	"gdr/internal/repair"
)

// Index is the persistent, incrementally maintained partition of a session's
// pending updates. It replaces the rebuild-per-call pattern
// (Partition(PendingUpdates()) + Rank) with a structure that absorbs the
// deltas the consistency manager produces — one Set or Delete per suggestion
// added, replaced or retired — and repairs the VOI ranking with a partial
// re-sort, so a steady-state poll costs O(changed) instead of
// O(pending × rules).
//
// Three invariants drive the design:
//
//   - Snapshots own their memory. Every *Group handed out by Rank carries
//     its own copy of the membership (made when the group was last
//     re-scored, i.e. within the O(changed) budget), and the index never
//     mutates a snapshot after handing it out. Callers iterating a
//     previously returned ranking therefore see a frozen view, exactly as
//     if it had been built from scratch at call time, and no caller can
//     corrupt the index's sorted membership through a returned slice.
//   - Benefits are cached per group and only recomputed for dirty groups: a
//     group is dirty when its membership changed (Set/Delete touched it) or
//     when the caller's staleness predicate says its attribute's scoring
//     inputs (rule versions, committee generation) moved. Clean groups keep
//     their cached float benefit, which — benefits being pure functions of
//     unchanged state — is bit-identical to what a recompute would produce.
//   - The ranking comparator (benefit desc, size desc, key) is a strict
//     total order (keys are unique), so merging the surviving ranked prefix
//     with the re-sorted dirty groups reproduces exactly the order a full
//     sort would yield.
//
// Version is a monotone counter covering everything a /groups response can
// observe: it bumps on every effective membership mutation and whenever a
// re-rank changes a cached benefit, so equal versions imply byte-identical
// VOI and size orderings (the converse need not hold).
//
// Index is not safe for concurrent use; like the session owning it, it is
// single-writer by design.
type Index struct {
	byKey  map[Key]*igroup
	byCell map[repair.CellKey]*igroup
	keys   []*igroup // key-ordered, the Partition order

	ranked     []*Group // last VOI ranking (immutable snapshots)
	haveRanked bool
	removed    bool // a group was destroyed since the last Rank
	version    uint64
}

// igroup is one live group plus its ranking cache. ups is index-private:
// snapshots copy it, so membership mutations may edit it in place.
type igroup struct {
	key    Key
	ups    []repair.Update // ascending Tid
	snap   *Group          // latest scored snapshot (carries cached benefit)
	scored bool            // snap's benefit matches current membership
}

// find returns the position of tid in the (tid-sorted) membership, and
// whether it is present.
func (g *igroup) find(tid int) (int, bool) {
	i := sort.Search(len(g.ups), func(i int) bool { return g.ups[i].Tid >= tid })
	return i, i < len(g.ups) && g.ups[i].Tid == tid
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		byKey:  make(map[Key]*igroup),
		byCell: make(map[repair.CellKey]*igroup),
	}
}

// Len returns the number of pending updates across all groups.
func (ix *Index) Len() int { return len(ix.byCell) }

// GroupCount returns the number of non-empty groups.
func (ix *Index) GroupCount() int { return len(ix.byKey) }

// Version returns the monotone ranking version (see the type comment).
func (ix *Index) Version() uint64 { return ix.version }

// Get returns the live update for a cell, if any.
func (ix *Index) Get(c repair.CellKey) (repair.Update, bool) {
	ig := ix.byCell[c]
	if ig == nil {
		return repair.Update{}, false
	}
	if i, ok := ig.find(c.Tid); ok {
		return ig.ups[i], true
	}
	return repair.Update{}, false
}

// Set adds or replaces the pending update for u's cell. A no-op Set (the
// identical update is already live) changes nothing and does not bump the
// version.
func (ix *Index) Set(u repair.Update) {
	cell := u.Cell()
	k := Key{Attr: u.Attr, Value: u.Value}
	if ig := ix.byCell[cell]; ig != nil {
		if ig.key == k {
			i, ok := ig.find(u.Tid)
			if !ok {
				panic("group: index cell points at group without the tuple")
			}
			if ig.ups[i] == u {
				return
			}
			ig.ups[i] = u
			ig.scored = false
			ix.version++
			return
		}
		ix.removeFrom(ig, u.Tid)
	}
	ig := ix.byKey[k]
	if ig == nil {
		ig = &igroup{key: k}
		ix.byKey[k] = ig
		i := sort.Search(len(ix.keys), func(i int) bool { return !less(ix.keys[i].key, k) })
		ix.keys = append(ix.keys, nil)
		copy(ix.keys[i+1:], ix.keys[i:])
		ix.keys[i] = ig
	}
	i, ok := ig.find(u.Tid)
	if ok {
		panic("group: two pending updates for one cell in a group")
	}
	ig.ups = append(ig.ups, repair.Update{})
	copy(ig.ups[i+1:], ig.ups[i:])
	ig.ups[i] = u
	ig.scored = false
	ix.byCell[cell] = ig
	ix.version++
}

// Delete retires the pending update for a cell, returning it. Deleting an
// absent cell is a no-op.
func (ix *Index) Delete(c repair.CellKey) (repair.Update, bool) {
	ig := ix.byCell[c]
	if ig == nil {
		return repair.Update{}, false
	}
	i, ok := ig.find(c.Tid)
	if !ok {
		panic("group: index cell points at group without the tuple")
	}
	u := ig.ups[i]
	delete(ix.byCell, c)
	ix.removeFrom(ig, c.Tid)
	ix.version++
	return u, true
}

// removeFrom drops tid's update from a group, destroying the group when it
// empties. The byCell entry is the caller's responsibility.
func (ix *Index) removeFrom(ig *igroup, tid int) {
	i, ok := ig.find(tid)
	if !ok {
		panic("group: removing a tuple the group does not hold")
	}
	if len(ig.ups) == 1 {
		delete(ix.byKey, ig.key)
		j := sort.Search(len(ix.keys), func(j int) bool { return !less(ix.keys[j].key, ig.key) })
		copy(ix.keys[j:], ix.keys[j+1:])
		ix.keys = ix.keys[:len(ix.keys)-1]
		ix.removed = true
		return
	}
	copy(ig.ups[i:], ig.ups[i+1:])
	ig.ups = ig.ups[:len(ig.ups)-1]
	ig.scored = false
}

// Updates returns a copy of one group's live updates in ascending tuple
// order, or nil for an unknown key. The copy is the caller's to reorder —
// in-group active learning sorts it by committee uncertainty.
func (ix *Index) Updates(k Key) []repair.Update {
	ig := ix.byKey[k]
	if ig == nil {
		return nil
	}
	return append([]repair.Update(nil), ig.ups...)
}

// AppendAll appends every live update to dst, grouped in key order
// (attribute, then value) and by ascending tid within a group. Callers
// needing the global (tid, attr) order sort afterwards; a stable sort by
// tid alone suffices.
func (ix *Index) AppendAll(dst []repair.Update) []repair.Update {
	for _, ig := range ix.keys {
		dst = append(dst, ig.ups...)
	}
	return dst
}

// Partition materializes the current groups in key order with zero
// benefits — byte-identical to Partition(pending) on the live set. Each
// returned group owns a fresh updates slice, so the greedy and random
// orderings hand out fully caller-owned data like the rebuild path did.
func (ix *Index) Partition() []*Group {
	out := make([]*Group, len(ix.keys))
	for i, ig := range ix.keys {
		out[i] = &Group{Key: ig.key, Updates: append([]repair.Update(nil), ig.ups...)}
	}
	return out
}

// Rank produces the VOI ordering and the post-rank ranking version.
//
// stale reports whether a group's scoring inputs moved even though its
// membership did not (the session derives this from the engine's rule
// version counters and the committee generations). score computes benefits
// for the given key-ordered groups, writing Benefit into each; it sees only
// the dirty groups. Clean groups keep their cached benefit and their
// relative order; the re-scored ones are merged back in with the shared
// total-order comparator, which reproduces the full-sort order exactly.
//
// The returned slice is the caller's. The *Group snapshots are cached and
// handed out again by later calls while clean, so a caller that reorders a
// snapshot's Updates in place only perturbs its own (and later callers')
// view of that group — never the index's membership, which snapshots do not
// alias.
func (ix *Index) Rank(stale func(Key) bool, score func([]*Group)) ([]*Group, uint64) {
	var cands []*Group
	var cigs []*igroup
	for _, ig := range ix.keys {
		if !ix.haveRanked || !ig.scored || stale(ig.key) {
			cands = append(cands, &Group{Key: ig.key, Updates: append([]repair.Update(nil), ig.ups...)})
			cigs = append(cigs, ig)
		}
	}
	if len(cands) == 0 && !ix.removed && ix.haveRanked {
		// Steady state: nothing to re-score, nothing removed — the cached
		// ranking is the answer.
		out := make([]*Group, len(ix.ranked))
		copy(out, ix.ranked)
		return out, ix.version
	}
	score(cands)
	changed := ix.removed
	fresh := cands[:0]
	for i, g := range cands {
		ig := cigs[i]
		if ig.scored && ig.snap != nil && ig.snap.Benefit == g.Benefit {
			continue // attribute was stale but the benefit survived: keep the old snapshot
		}
		ig.snap = g
		ig.scored = true
		fresh = append(fresh, g)
		changed = true
	}
	var clean []*Group
	for _, g := range ix.ranked {
		if ig := ix.byKey[g.Key]; ig != nil && ig.snap == g {
			clean = append(clean, g)
		}
	}
	SortByBenefit(fresh)
	ix.ranked = MergeByBenefit(clean, fresh)
	ix.haveRanked = true
	ix.removed = false
	if changed {
		ix.version++
	}
	out := make([]*Group, len(ix.ranked))
	copy(out, ix.ranked)
	return out, ix.version
}
