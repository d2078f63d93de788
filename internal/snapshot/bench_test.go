package snapshot

import (
	"fmt"
	"sync"
	"testing"

	"gdr/internal/core"
	"gdr/internal/dataset"
	"gdr/internal/par"
	"gdr/internal/repair"
)

// benchRounds is how many no-learn feedback rounds a benchmark session has
// been driven through before it is encoded, so its snapshot carries locked
// cells, prevented lists and a partly repaired instance, not just the
// initial suggestions.
const benchRounds = 20

var benchSessions sync.Map // rows → *core.Session

// benchSession returns a hospital session of the given size after
// benchRounds rounds that answer the top VOI group from the truth with
// ApplyFeedback (no learner), the way a gdrd no_learn client does. Sessions
// are built once per size and shared; encoding only reads them.
func benchSession(tb testing.TB, rows int) *core.Session {
	tb.Helper()
	if s, ok := benchSessions.Load(rows); ok {
		return s.(*core.Session)
	}
	d := dataset.Hospital(dataset.Config{N: rows, Seed: 1})
	sess, err := core.NewSession(d.Dirty, d.Rules, core.Config{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for round := 0; round < benchRounds; round++ {
		gs := sess.Groups(core.OrderVOI, nil)
		if len(gs) == 0 {
			tb.Fatalf("%d-row session ran out of groups after %d rounds", rows, round)
		}
		for _, u := range sess.GroupUpdates(gs[0].Key) {
			cur, live := sess.Pending(u.Cell())
			if !live || cur.Value != u.Value {
				continue
			}
			switch tv := d.Truth.Get(u.Tid, u.Attr); {
			case u.Value == tv:
				sess.ApplyFeedback(cur, repair.Confirm)
			case sess.DB().Get(u.Tid, u.Attr) == tv:
				sess.ApplyFeedback(cur, repair.Retain)
			default:
				sess.ApplyFeedback(cur, repair.Reject)
			}
		}
	}
	s, _ := benchSessions.LoadOrStore(rows, sess)
	return s.(*core.Session)
}

// checkpointEncode is the serving tier's checkpoint encode: the session's
// state view appended to a buffer sized from the previous snapshot.
func checkpointEncode(sess *core.Session, prevLen int) ([]byte, error) {
	meta := Meta{MutSeq: benchRounds}
	return AppendStateMeta(make([]byte, 0, prevLen), "bench", meta, sess.StateView())
}

// BenchmarkSnapshotEncode measures one checkpoint encode over 2000- and
// 20000-row hospital sessions, on the actor's code path (state view, then
// an append into a buffer sized from the previous snapshot).
func BenchmarkSnapshotEncode(b *testing.B) {
	for _, rows := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			sess := benchSession(b, rows)
			data, err := checkpointEncode(sess, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if data, err = checkpointEncode(sess, len(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotDecode measures restoring the same sessions from their
// snapshot bytes: decode plus the rebuild of the engine and caches.
func BenchmarkSnapshotDecode(b *testing.B) {
	for _, rows := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			data, err := checkpointEncode(benchSession(b, rows), 0)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCheckpointEncodeAllocs pins the checkpoint encode of the 20000-row
// benchmark session to a fixed allocation budget. The encode reads the
// live session through its state view, so its allocations are the derived
// lists and the output buffer; one allocation per tuple (a row copy, a
// regrown buffer) would blow far past the ceiling. The CI alloc-guard step
// runs it.
func TestCheckpointEncodeAllocs(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	sess := benchSession(t, 20000)
	data, err := checkpointEncode(sess, 0)
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 1000
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := checkpointEncode(sess, len(data)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("checkpoint encode of a 20000-row session allocates %.0f times, want <= %d", allocs, ceiling)
	}
	t.Logf("%d-byte snapshot, %.0f allocations", len(data), allocs)
}
