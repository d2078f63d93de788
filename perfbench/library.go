package main

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"gdr/internal/cfd"
	"gdr/internal/core"
	"gdr/internal/dataset"
	"gdr/internal/group"
	"gdr/internal/metrics"
	"gdr/internal/relation"
	"gdr/internal/repair"
)

// input is one session's generated workload. served inputs carry the CSV
// and rule text that are uploaded; the library replay parses the same
// text, exactly as gdrd does, so both build the same instance.
type input struct {
	k     int
	seed  int64
	data  *dataset.Data
	csv   string
	rules string
}

// sessionSeed derives session k's data and session seed from the run
// seed. Seeds are never 0, which gdrd would read as "server default".
func sessionSeed(runSeed int64, k int) int64 {
	if runSeed < 0 {
		runSeed = -runSeed
	}
	return runSeed*1000 + int64(k) + 1
}

// newInput generates session k's hospital instance. served inputs are
// also rendered to the upload text.
func newInput(runSeed int64, k, rows int, served bool) (*input, error) {
	seed := sessionSeed(runSeed, k)
	d := dataset.Hospital(dataset.Config{N: rows, Seed: seed})
	in := &input{k: k, seed: seed, data: d}
	if served {
		var b strings.Builder
		if err := d.Dirty.WriteCSV(&b); err != nil {
			return nil, fmt.Errorf("rendering session %d: %w", k, err)
		}
		in.csv = b.String()
		var r strings.Builder
		for _, c := range d.Rules {
			r.WriteString(c.String() + "\n")
		}
		in.rules = r.String()
		// The server and the replay both build from the text; dropping
		// the parsed copy keeps the pool small.
		d.Dirty = nil
	}
	return in, nil
}

// verb is the truth-side answer gdrload gives: confirm a suggestion that
// matches the truth, retain a cell that already holds it, reject anything
// else. current is the cell's value when the updates were listed.
func verb(truth *relation.DB, u repair.Update, current string) repair.Feedback {
	want := truth.Get(u.Tid, u.Attr)
	switch {
	case u.Value == want:
		return repair.Confirm
	case current == want:
		return repair.Retain
	default:
		return repair.Reject
	}
}

// outcome is what a driven session ended with. Two drives of one seed
// must produce equal outcomes, whatever the topology or worker count.
type outcome struct {
	k            int
	seed         int64
	initialDirty int
	items        int    // user answers applied
	rounds       int    // groups → updates → feedback rounds
	traj         uint64 // hash of every round's group and applied count
	csv          [32]byte
	dirty        int
	pending      int
	quality      float64 // mean Eq. 3 improvement over the trajectory (replay only)
	missed       int     // dirty tuples left with a suggestion never offered (replay only)
	owner        string  // node that served the session (proxy only)
	snapBytes    int64   // final checkpoint size (durable topologies)
}

// effort is the share of the initial dirty tuples the user answered, in %.
func (o outcome) effort() float64 {
	if o.initialDirty == 0 {
		return 0
	}
	return 100 * float64(o.items) / float64(o.initialDirty)
}

// sameAs reports the first field in which o differs from the reference.
func (o outcome) sameAs(ref outcome) error {
	switch {
	case o.initialDirty != ref.initialDirty:
		return fmt.Errorf("initial dirty %d, replay %d", o.initialDirty, ref.initialDirty)
	case o.rounds != ref.rounds:
		return fmt.Errorf("%d rounds, replay %d", o.rounds, ref.rounds)
	case o.items != ref.items:
		return fmt.Errorf("%d items, replay %d", o.items, ref.items)
	case o.traj != ref.traj:
		return fmt.Errorf("trajectory differs from the replay")
	case o.csv != ref.csv:
		return fmt.Errorf("exported CSV differs from the replay")
	case o.dirty != ref.dirty:
		return fmt.Errorf("%d dirty tuples left, replay %d", o.dirty, ref.dirty)
	}
	return nil
}

// finished checks that the session was driven to its end.
func (o outcome) finished() error {
	if o.pending != 0 {
		return fmt.Errorf("ended with %d pending updates", o.pending)
	}
	return nil
}

// missedSuggestions counts a finished session's dirty tuples that the
// update generator, asked afresh, still has a suggestion for. Each is a
// suggestion the consistency manager failed to offer: it revisits only the
// tuples whose dirty status a change flipped, so a tuple whose candidates
// changed through its partners alone keeps its old (empty) suggestion
// list. The count is the program's, reported on every run; it is not a
// gate, because the program does not keep this invariant (seed 20,
// session 5 of engine-learn ends with one such tuple).
func missedSuggestions(sess *core.Session) int {
	eng, gen := sess.Engine(), sess.Generator()
	n := 0
	for tid := 0; tid < sess.DB().N(); tid++ {
		if !eng.IsDirty(tid) {
			continue
		}
		for _, attr := range sess.DB().Schema.Attrs {
			if _, ok := gen.Suggest(tid, attr); ok {
				n++
				break
			}
		}
	}
	return n
}

// trajectory hashes a session's rounds.
type trajectory struct{ h uint64 }

func (t *trajectory) add(attr, value string, applied int) {
	f := fnv.New64a()
	fmt.Fprintf(f, "%d|%s|%s|%d", t.h, attr, value, applied)
	t.h = f.Sum64()
}

// libTimer carries a library drive's measurements. A nil libTimer (the
// replay) measures nothing.
type libTimer struct {
	st    *driveStats
	rec   *recorder
	round int64
	cur   int // span the phase hook nests under
}

// phaseHook records the engine's retrain and suggest phases as child
// spans. The rerank phase is skipped: it is the whole of the Groups call,
// which already has its own span.
func (t *libTimer) phaseHook(phase string) func() {
	name := ""
	switch phase {
	case core.PhaseRetrain:
		name = "learn.retrain"
	case core.PhaseSuggest:
		name = "repair.suggest"
	default:
		return nil
	}
	id := t.rec.begin(name, t.cur, t.round)
	return func() { t.rec.end(id) }
}

// driveLibrary runs Procedure 1 on sess until no group remains: rank by
// VOI, take the top group, answer all of its live updates from the truth.
// learn routes answers through UserFeedback (the learner on); otherwise
// through ApplyFeedback (GDR-NoLearning, what gdrd's no_learn does). q,
// when set, accumulates the improvement curve into the outcome.
func driveLibrary(sess *core.Session, truth *relation.DB, learn bool, q *metrics.Quality, t *libTimer) (outcome, error) {
	var o outcome
	var traj trajectory
	var area float64
	type item struct {
		u   repair.Update
		cur string
	}
	for {
		var roundStart time.Time
		root := -1
		if t != nil {
			t.round++
			roundStart = time.Now()
			root = t.rec.begin("unattributed", -1, t.round)
		}
		var gs []*group.Group
		t.timed("core.groups", root, func() { gs = sess.Groups(core.OrderVOI, nil) })
		var groupsMs float64
		if t != nil {
			groupsMs = msSince(roundStart)
			t.st.ops++
		}
		if len(gs) == 0 {
			if t != nil {
				t.rec.end(root)
				t.st.add(sample{groupsMs: groupsMs})
			}
			break
		}
		key := gs[0].Key
		var items []item
		t.timed("core.group_updates", root, func() {
			for _, u := range sess.GroupUpdates(key) {
				items = append(items, item{u, sess.DB().Get(u.Tid, u.Attr)})
			}
		})
		fbStart := time.Now()
		applied := 0
		for _, it := range items {
			cur, live := sess.Pending(it.u.Cell())
			if !live || cur.Value != it.u.Value {
				if t != nil {
					t.st.stale++
				}
				continue
			}
			fb := verb(truth, it.u, it.cur)
			if learn {
				// UserFeedback's first step is this same memoized Predict;
				// calling it first gives the learner its own span without
				// changing what the session computes.
				t.timed("learn.predict", root, func() { sess.Predict(cur) })
				t.timed("core.feedback", root, func() { sess.UserFeedback(cur, fb) })
			} else {
				t.timed("core.feedback", root, func() { sess.ApplyFeedback(cur, fb) })
			}
			applied++
		}
		traj.add(key.Attr, key.Value, applied)
		o.rounds++
		o.items += applied
		if q != nil {
			area += float64(applied) * q.Improvement(sess.Engine())
		}
		if t != nil {
			t.rec.end(root)
			t.st.add(sample{round: true, roundMs: msSince(roundStart), feedbackMs: msSince(fbStart), groupsMs: groupsMs, items: applied})
			t.st.items += applied
			t.st.ops += 2
		}
	}
	st := sess.Stats()
	o.initialDirty, o.dirty, o.pending = st.InitialDirty, st.Dirty, st.Pending
	o.traj = traj.h
	h := sha256.New()
	if err := sess.DB().WriteCSV(h); err != nil {
		return o, fmt.Errorf("exporting: %w", err)
	}
	copy(o.csv[:], h.Sum(nil))
	if o.items > 0 {
		o.quality = area / float64(o.items)
	}
	return o, nil
}

// timed runs fn inside a span named layer (when t traces) and makes the
// span the phase hook's parent while fn runs. It is safe on a nil t.
func (t *libTimer) timed(layer string, parent int, fn func()) {
	if t == nil || t.rec == nil {
		fn()
		return
	}
	id := t.rec.begin(layer, parent, t.round)
	prev := t.cur
	t.cur = id
	fn()
	t.cur = prev
	t.rec.end(id)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// replay drives the session of in again, serially and in-process, and
// returns the reference outcome with its quality curve. Served inputs are
// rebuilt from their upload text the way gdrd builds them.
func replay(in *input, learn bool) (outcome, error) {
	var db *relation.DB
	var rules []*cfd.CFD
	if in.csv != "" {
		var err error
		if db, err = relation.ReadCSV(strings.NewReader(in.csv), "upload"); err != nil {
			return outcome{}, err
		}
		if rules, err = cfd.Parse(strings.NewReader(in.rules)); err != nil {
			return outcome{}, err
		}
	} else {
		db, rules = in.data.Dirty.Clone(), in.data.Rules
	}
	sess, err := core.NewSession(db, rules, core.Config{Seed: in.seed, Workers: 1})
	if err != nil {
		return outcome{}, err
	}
	q, err := metrics.NewQuality(in.data.Truth, sess.Engine(), nil)
	if err != nil {
		return outcome{}, err
	}
	o, err := driveLibrary(sess, in.data.Truth, learn, q, nil)
	o.k, o.seed = in.k, in.seed
	o.missed = missedSuggestions(sess)
	return o, err
}
