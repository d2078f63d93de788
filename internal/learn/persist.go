package learn

import "fmt"

// ModelState is the serializable state of one per-attribute learner. The
// committee's trees are deliberately NOT part of it: Train is a pure
// function of (Config.Seed, the example list, the retrain counter), so a
// restored model regrows the byte-identical forest on demand. Snapshots
// stay small and independent of the tree representation, which can evolve
// without a snapshot format bump.
type ModelState struct {
	// Cfg is the forest configuration the model was created with, including
	// the derived per-attribute Seed.
	Cfg Config
	// MinTrain is the readiness threshold (see NewModel).
	MinTrain int
	// Examples is the accumulated training set, in feedback order.
	Examples []Example
	// Retrains counts how many times the committee has been regrown; the
	// training seed is derived from it.
	Retrains int64
	// Trained reports whether a forest was grown for the current training
	// set (false while the model is stale or has never predicted).
	Trained bool
}

// State snapshots the model. Examples are shared, not copied: the model
// only ever appends to its training set and never mutates recorded
// examples, so the returned state stays valid while the model keeps
// learning.
func (m *Model) State() ModelState {
	return ModelState{
		Cfg:      m.cfg,
		MinTrain: m.minTrain,
		Examples: m.examples[:len(m.examples):len(m.examples)],
		Retrains: m.retrains,
		Trained:  !m.stale && m.forest != nil,
	}
}

// RestoreModel rebuilds a model from a snapshot. If the snapshot recorded a
// trained committee, the forest is regrown here with the same derived seed,
// so the restored model's predictions are byte-identical to the original's
// from this point on. The example list is validated (consistent categorical
// arity, known labels) so a corrupt snapshot errors instead of panicking
// inside later Train/Predict calls.
func RestoreModel(st ModelState) (*Model, error) {
	for i, ex := range st.Examples {
		if ex.Label < 0 || ex.Label >= NumLabels {
			return nil, fmt.Errorf("learn: example %d: label %d out of range", i, ex.Label)
		}
		if len(ex.Cats) != len(st.Examples[0].Cats) {
			return nil, fmt.Errorf("learn: example %d: categorical arity %d, want %d",
				i, len(ex.Cats), len(st.Examples[0].Cats))
		}
	}
	if st.Trained && len(st.Examples) == 0 {
		return nil, fmt.Errorf("learn: snapshot claims a trained committee with no examples")
	}
	if st.Retrains < 0 {
		return nil, fmt.Errorf("learn: negative retrain count %d", st.Retrains)
	}
	m := NewModel(st.Cfg, st.MinTrain)
	m.examples = append([]Example(nil), st.Examples...)
	for _, ex := range m.examples {
		m.enc.add(ex)
	}
	m.retrains = st.Retrains
	if st.Trained {
		m.train()
	}
	return m, nil
}
