package serve

import (
	"bytes"
	"slices"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/shard"
	"repro/internal/sparse"
)

// Snapshot construction. buildSnapshot is the one way a snapshot comes to
// be: both installs (SwapNamed for a heap model, PromoteGroup for a checked
// file group — LoadGeneration, the replicas, the stream publisher) hand it
// a model, and it decides what the slot's current snapshot lets it keep.
// A caller that knows what
// changed passes a Delta — O(changed), nothing is compared. A caller that
// does not passes nil and the delta is derived from the bytes (deriveDelta):
// one memcmp pass over the blocks plus the membership rows that differ,
// against O(U·|C| + |Z|·(|W| + |C|²)) for a from-scratch build (the user
// index, the log tables and openness). A patch
// changes membership rows only; a difference anywhere else — Φ included —
// is a full build.

// Build kinds and the reasons a full build ran (BuildInfo).
const (
	BuildPatched = "patched"
	BuildFull    = "full"

	reasonNoPredecessor = "no predecessor"
	reasonGlobals       = "globals changed"
	reasonShape         = "shape changed"
	reasonShard         = "shard moved"
	reasonVocabulary    = "vocabulary changed"
)

// BuildInfo records how a snapshot's derived state was constructed — the
// answer to "why was this promote slow".
type BuildInfo struct {
	// Kind is BuildPatched when the predecessor's derived state was reused
	// and BuildFull when everything was built from the model.
	Kind string `json:"kind"`
	// Reason says why a full build ran: "no predecessor", "globals changed"
	// (Θ, Φ, η, ν, POPF, XI or a Cfg field other than a dimension differ),
	// "shape changed" (|C|, |Z|, |W| differ or users
	// shrank), "shard moved" (another shard index, count or first user) or
	// "vocabulary changed". Empty for a patched build.
	Reason string `json:"reason,omitempty"`
	// Derived marks a delta worked out from the bytes instead of supplied
	// by the caller.
	Derived bool  `json:"derived,omitempty"`
	Micros  int64 `json:"micros"`
	// Users counts the membership rows that were (re-)indexed: every row
	// for a full build.
	Users int `json:"users"`
}

// BuildSnapshot is buildSnapshot for the benchmark harness, which times
// index builds through it; the caller must Release the result.
func (e *Engine) BuildSnapshot(name string, m *core.Model, vocab *corpus.Vocabulary, delta *Delta) *Snapshot {
	return e.buildSnapshot(name, m, vocab, delta, nil)
}

// buildSnapshot constructs — without publishing — a snapshot of m for the
// named slot; sh, when non-nil, is the shard of a sharded generation m
// holds, which takes part in the derivation and is attached to the result.
// With a snapshot already in the slot its derived state is patched
// (patchFrom): by *delta when the caller supplies one, by a delta derived
// from the bytes when delta is nil or was computed against another
// snapshot than the one now in the slot (Delta.Base). With an empty slot,
// or when the derivation finds a difference patching cannot express, the
// snapshot is built from scratch; Snapshot.Build says which happened and
// why. Either way the result is bit-identical to a from-scratch build.
// The caller publishes the snapshot or must Release it if abandoned.
func (e *Engine) buildSnapshot(name string, m *core.Model, vocab *corpus.Vocabulary, delta *Delta, sh *shard.Info) *Snapshot {
	start := time.Now()
	var s *Snapshot
	derived := false
	reason := reasonNoPredecessor
	if prev, release, err := e.AcquireNamed(name); err == nil {
		switch {
		case !sameShard(prev.Shard, sh):
			// Local row u is another user: no delta, supplied or derived,
			// relates the two.
			reason = reasonShard
		case delta == nil || delta.Base != 0 && delta.Base != prev.Version:
			var d Delta
			d, reason = deriveDelta(prev, m, vocab)
			delta, derived = &d, true
		default:
			reason = ""
		}
		if reason == "" {
			s = patchFrom(prev, m, vocab, *delta)
		}
		release()
	}
	if s == nil {
		s = newSnapshot(m, vocab, name, 0, e.opts)
		s.build.Reason = reason
	}
	if sh != nil {
		info := *sh
		s.Shard = &info
	}
	s.build.Derived = derived
	elapsed := time.Since(start)
	s.build.Micros = elapsed.Microseconds()
	if s.build.Kind == BuildPatched {
		e.patchedBuilds.Add(1)
	} else {
		e.fullBuilds.Add(1)
	}
	e.buildLat.Observe(elapsed, nil)
	return s
}

// sameShard reports whether two snapshots index the same slice of the
// user space: both whole models, or the same shard of the same split
// starting at the same user. UserHi and TotalUsers may differ — the last
// shard grows as users are appended, and a longer Π is something a delta
// can express.
func sameShard(a, b *shard.Info) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Index == b.Index && a.Count == b.Count && a.UserLo == b.UserLo
}

// deriveDelta compares everything a snapshot's derived state reads in m
// against the model behind prev and returns the Delta that patchFrom needs
// to turn prev's state into m's, or the reason there is none.
//
// Completeness is patchFrom's whole contract, so the comparison is exact
// and can only err towards more work: blocks are compared as bytes (the
// same memory is equal without being read; a checksum is never trusted),
// so a row that differs in the sign of a zero or a NaN payload counts as
// changed, and any difference in a block no delta can name — Cfg, Θ, Φ, η,
// ν, POPF, XI — means a full build. Π differences become Delta.Users;
// appended users are implicit. The caller has established that prev and m
// index the same users (sameShard).
func deriveDelta(prev *Snapshot, m *core.Model, vocab *corpus.Vocabulary) (Delta, string) {
	pm := prev.Model
	if m.Cfg.NumCommunities != pm.Cfg.NumCommunities || m.Cfg.NumTopics != pm.Cfg.NumTopics ||
		m.NumWords != pm.NumWords || m.NumUsers < pm.NumUsers ||
		m.Phi.Rows != pm.Phi.Rows || m.Phi.Cols != pm.Phi.Cols || m.Pi.Cols != pm.Pi.Cols {
		return Delta{}, reasonShape
	}
	// Workers is the training pool size of whichever host wrote the model
	// (file loaders zero it); no query reads it.
	cfg, pcfg := m.Cfg, pm.Cfg
	cfg.Workers, pcfg.Workers = 0, 0
	if cfg != pcfg || !sameDense(m.Theta, pm.Theta) || !sameFloats(m.Phi.Data, pm.Phi.Data) ||
		!sameFloats(m.Eta.Data, pm.Eta.Data) || !sameFloats(m.Nu, pm.Nu) ||
		!sameDense(m.PopFreq, pm.PopFreq) || !sameDense(m.Xi, pm.Xi) {
		return Delta{}, reasonGlobals
	}
	if !sameVocabulary(vocab, prev.Vocab) {
		return Delta{}, reasonVocabulary
	}
	var d Delta
	if C := pm.Pi.Cols; !sameFloats(m.Pi.Data[:len(pm.Pi.Data)], pm.Pi.Data) {
		for u := 0; u < pm.NumUsers; u++ {
			if !sameFloats(m.Pi.Data[u*C:(u+1)*C], pm.Pi.Data[u*C:(u+1)*C]) {
				d.Users = append(d.Users, int32(u))
			}
		}
	}
	return d, ""
}

// sameFloats reports whether a and b hold the same bytes.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	return bytes.Equal(floatBytes(a), floatBytes(b))
}

// floatBytes returns the memory of a non-empty xs as bytes, without
// copying.
func floatBytes(xs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), 8*len(xs))
}

// sameDense is sameFloats for matrices that may be absent (XI, POPF).
func sameDense(a, b *sparse.Dense) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Rows == b.Rows && a.Cols == b.Cols && sameFloats(a.Data, b.Data)
}

func sameVocabulary(a, b *corpus.Vocabulary) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a == b || slices.Equal(a.Words(), b.Words())
}
