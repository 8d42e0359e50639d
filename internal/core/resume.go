package core

import (
	"fmt"

	"repro/internal/socialgraph"
)

// ResumeOptions tunes an engine resumed from a saved model. The zero value
// keeps the model's trained worker count and derives a fresh seed from the
// original one.
type ResumeOptions struct {
	// Workers overrides the worker-pool size (0 keeps the model's value,
	// with the usual 0-means-NumCPU default).
	Workers int
	// Seed drives the resumed run's private RNG root. 0 derives a seed from
	// the model's training seed, so back-to-back resumes of the same
	// snapshot are deterministic but decorrelated from the original run.
	Seed uint64
}

// NewEngineFromModel reconstructs a sampler engine from a trained model —
// the Resume-from-snapshot path. The hard assignments the model carries
// (DocCommunity/DocTopic) seed the sampler state for the documents they
// cover; documents of g beyond them (a graph extended with streamed
// content) are initialized randomly from the resume seed. The counter
// tables, η and ν are rebuilt from those assignments and the model's
// parameter blocks, so a resumed sweep continues the chain instead of
// restarting it.
//
// Not a bitwise continuation: the Pólya-Gamma augmentation variables and
// the negative-friendship sample are not serialized, so they are re-drawn
// (from their priors and the resume seed respectively). Resumed training
// is deterministic per (model, graph, ResumeOptions), and — like fresh
// training — bit-identical for every Workers value.
//
// The graph may extend the training graph with new users, documents, words
// and links, but must contain at least the documents the model was trained
// on, in the same order. Models trained with ModelAttributes or
// NoJointModeling cannot be resumed (attribute assignments are not
// serialized; the two-phase ablation has no single chain to continue).
func NewEngineFromModel(g *socialgraph.Graph, m *Model, opts ResumeOptions) (*Engine, error) {
	cfg := m.Cfg
	if opts.Workers > 0 {
		cfg.Workers = opts.Workers
	}
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	} else {
		cfg.Seed = m.Cfg.Seed ^ 0x5E5ED
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ModelAttributes {
		return nil, fmt.Errorf("core: cannot resume a model trained with ModelAttributes (attribute assignments are not serialized)")
	}
	if cfg.NoJointModeling {
		return nil, fmt.Errorf("core: cannot resume a NoJointModeling model (no single chain to continue)")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid graph: %w", err)
	}
	if len(g.Docs) == 0 {
		return nil, fmt.Errorf("core: graph has no documents")
	}
	nKeep := len(m.DocCommunity)
	if len(m.DocTopic) != nKeep {
		return nil, fmt.Errorf("core: model assignment blocks disagree (%d communities, %d topics)", nKeep, len(m.DocTopic))
	}
	if len(g.Docs) < nKeep {
		return nil, fmt.Errorf("core: graph has %d documents but the model carries %d assignments", len(g.Docs), nKeep)
	}
	if g.NumUsers < m.NumUsers {
		return nil, fmt.Errorf("core: graph has %d users but the model was trained on %d", g.NumUsers, m.NumUsers)
	}
	C, Z := cfg.NumCommunities, cfg.NumTopics
	for i := 0; i < nKeep; i++ {
		if c := m.DocCommunity[i]; c < 0 || int(c) >= C {
			return nil, fmt.Errorf("core: model assigns doc %d community %d (|C|=%d)", i, c, C)
		}
		if z := m.DocTopic[i]; z < 0 || int(z) >= Z {
			return nil, fmt.Errorf("core: model assigns doc %d topic %d (|Z|=%d)", i, z, Z)
		}
	}
	if m.Eta == nil || m.Eta.D1 != C || m.Eta.D2 != C || m.Eta.D3 != Z {
		return nil, fmt.Errorf("core: model eta block missing or mis-shaped")
	}
	g.BuildIndexes()
	return newEngine(newStateFromModel(g, m, cfg)), nil
}

// newStateFromModel is newState with assignments, η and ν seeded from the
// model instead of drawn at random. Documents of g beyond the model's (a
// graph extended since the snapshot) start at random, exactly as in a fresh
// run, so the resumed state is deterministic.
func newStateFromModel(g *socialgraph.Graph, m *Model, cfg Config) *state {
	return buildState(g, cfg, m.Eta.Clone(), m.Nu, m.DocCommunity, m.DocTopic)
}

// SetDirty restricts subsequent sweeps to the dirty users: only their
// documents' assignments are resampled, and a link's augmentation variable
// is refreshed only when at least one endpoint is dirty. nil clears the
// restriction (every user sweeps). A sweep with every user dirty is
// bit-identical to an unrestricted sweep — the filter never fires, so the
// sampling and RNG consumption are exactly the same.
//
// The dirty slice is read by the worker pool during sweeps; callers must
// not mutate it until the engine is closed or SetDirty is called again
// between sweeps.
func (e *Engine) SetDirty(dirty []bool) error {
	if dirty != nil && len(dirty) != e.st.g.NumUsers {
		return fmt.Errorf("core: dirty mask covers %d users, graph has %d", len(dirty), e.st.g.NumUsers)
	}
	e.dirty = dirty
	return nil
}

// RunEM runs iters plain EM iterations on the engine — one E-step sweep
// (restricted to the dirty set, when one is installed) followed by the η
// and ν M-steps — and returns the resulting model. Unlike Train it runs no
// warm start and no ablation phasing: it continues whatever chain the
// engine's state holds, which is what the resume path and the streaming
// delta trainer need. It may be called repeatedly; diagnostics accumulate.
func (e *Engine) RunEM(iters int) (*Model, *Diagnostics, error) {
	if e.closed {
		return nil, nil, fmt.Errorf("core: RunEM on closed Engine")
	}
	if iters < 0 {
		return nil, nil, fmt.Errorf("core: RunEM needs a non-negative iteration count, got %d", iters)
	}
	return e.result(e.emIterations(iters, newScratch(e.cfg, e.st.root.Split(0xE11))))
}

// TrainResumed continues training from a saved model for iters EM
// iterations on g (the training graph, possibly extended) and returns the
// re-estimated model: the one-call form of NewEngineFromModel + RunEM that
// cpd-train -resume uses.
func TrainResumed(g *socialgraph.Graph, m *Model, iters int, opts ResumeOptions) (*Model, *Diagnostics, error) {
	e, err := NewEngineFromModel(g, m, opts)
	if err != nil {
		return nil, nil, err
	}
	defer e.Close()
	return e.RunEM(iters)
}
