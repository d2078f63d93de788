package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"gdr/internal/core"
	"gdr/internal/dataset"
	"gdr/internal/repair"
)

// TestLiveEncodeReproducesGolden: encoding the canonical session straight
// from its state view writes exactly the checked-in golden bytes, which
// were produced by the copying encoder.
func TestLiveEncodeReproducesGolden(t *testing.T) {
	golden := fmt.Sprintf("testdata/golden_v%d.snap", FormatVersion)
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Encode("golden", canonicalSession(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("view encode of the canonical session differs from %s (%d vs %d bytes)", golden, len(got), len(want))
	}
}

// TestViewEncodeMatchesExport: on randomized learn and no-learn sessions
// with rejects, retains and an insert, at worker counts 1 and 4, appending
// the state view after an arbitrary prefix yields exactly the bytes of
// EncodeStateMeta over the copied ExportState.
func TestViewEncodeMatchesExport(t *testing.T) {
	meta := Meta{MutSeq: 300, Dedup: []DedupEntry{{ID: "r1", Body: []byte(`{"ok":true}`)}}}
	prefix := []byte("prefix")
	for _, learn := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("learn=%v/workers=%d", learn, workers), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(workers)*7 + 1))
				d := dataset.Hospital(dataset.Config{N: 160, Seed: 41, DirtyRate: 0.3})
				sess, err := core.NewSession(d.Dirty.Clone(), d.Rules, core.Config{Seed: 9, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				verbs := []repair.Feedback{repair.Confirm, repair.Reject, repair.Retain}
				var locked, prevented bool
				for round := 0; round < 8; round++ {
					if round == 3 {
						tup := d.Truth.Tuple(r.Intn(d.Truth.N()))
						tup[0] = d.Truth.GetAt(r.Intn(d.Truth.N()), 0)
						if _, err := sess.Insert(tup); err != nil {
							t.Fatal(err)
						}
					}
					gs := sess.Groups(core.OrderVOI, nil)
					if len(gs) == 0 {
						break
					}
					for _, u := range sess.GroupUpdates(gs[r.Intn(min(3, len(gs)))].Key) {
						cur, live := sess.Pending(u.Cell())
						if !live || cur.Value != u.Value {
							continue
						}
						if fb := verbs[r.Intn(len(verbs))]; learn {
							sess.UserFeedback(cur, fb)
						} else {
							sess.ApplyFeedback(cur, fb)
						}
					}
					if learn {
						sess.LearnerSweep(2)
					}
					exported, err := EncodeStateMeta("s", meta, sess.ExportState())
					if err != nil {
						t.Fatal(err)
					}
					view := sess.StateView()
					locked, prevented = len(view.Locked) > 0, len(view.Prevented) > 0
					appended, err := AppendStateMeta(append([]byte(nil), prefix...), "s", meta, view)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.HasPrefix(appended, prefix) || !bytes.Equal(appended[len(prefix):], exported) {
						t.Fatalf("round %d: view encode differs from the ExportState encode", round)
					}
				}
				if !locked || !prevented {
					t.Fatalf("drive left the bookkeeping empty (locked %v, prevented %v)", locked, prevented)
				}
			})
		}
	}
}

// TestUvarintFastPath: the encoder's one-byte shortcut writes what
// encoding/binary writes, on both sides of every boundary it could get
// wrong.
func TestUvarintFastPath(t *testing.T) {
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 0x81, 0xff, 0x3fff, 0x4000, math.MaxUint32, math.MaxUint64} {
		e := &encoder{}
		e.uv(v)
		if want := binary.AppendUvarint(nil, v); !bytes.Equal(e.b, want) {
			t.Fatalf("uv(%#x) = % x, want % x", v, e.b, want)
		}
	}
}
