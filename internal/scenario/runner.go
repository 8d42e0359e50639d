package scenario

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/quality"
	"repro/internal/serve"
	"repro/internal/store"
)

// Metrics is one scenario's end-to-end measurement: dataset shape plus the
// quality and agreement scores the regression suite pins with golden
// files. Everything here is deterministic per preset.
type Metrics struct {
	Preset string `json:"preset"`

	Users       int `json:"users"`
	Docs        int `json:"docs"`
	FriendLinks int `json:"friendLinks"`
	DiffLinks   int `json:"diffLinks"`
	Vocab       int `json:"vocab"`

	// NMI is detected-vs-planted community agreement (eval.NMI).
	NMI float64 `json:"nmi"`
	// DiffusionAUC scores the trained model on observed diffusion links
	// vs. sampled non-links.
	DiffusionAUC float64 `json:"diffusionAUC"`
	// RankAgreement is the fraction of probe single-word queries whose
	// full ranking through the serving engine's inverted index matches
	// the model's exact K×|Z| scan. With full posting lists this must
	// be 1.0 — any deficit is an index regression.
	RankAgreement float64 `json:"rankAgreement"`

	// Structural quality of the trained partition over the friendship
	// graph (internal/quality): golden-pinned so a sampler change that
	// degrades community structure fails the suite even when NMI drifts
	// inside its tolerance.
	Modularity     float64 `json:"modularity"`
	Coverage       float64 `json:"coverage"`
	AvgConductance float64 `json:"avgConductance"`
	SizeP50        int     `json:"sizeP50"`

	// PLPNMI scores the parallel label-propagation baseline's partition
	// against the same planted truth — the comparison row. The trained
	// model is expected to beat it on content-driven presets.
	PLPNMI float64 `json:"plpNMI"`
}

// RunOptions tunes one regression run.
type RunOptions struct {
	// Dir is the scratch directory for snapshot files; empty uses a
	// fresh temporary directory that is removed afterwards.
	Dir string
	// SkipHTTP disables the JSON-API pass (the runner's default is to
	// drive one query of every kind through serve.APIHandler, making the
	// check end-to-end through the same surface cpd-serve exposes).
	SkipHTTP bool
}

// Run executes one preset's full regression: build the bundle, train,
// round-trip the model through a v2 snapshot, stand up a serving engine,
// and verify every invariant. It returns the scenario metrics;
// the error aggregates every violated invariant (the metrics are still
// returned alongside, for reporting).
func Run(p Preset, opts RunOptions) (*Metrics, error) {
	b, err := Build(p)
	if err != nil {
		return nil, err
	}
	dir := opts.Dir
	if dir == "" {
		dir, err = os.MkdirTemp("", "cpd-scenario-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	model, _, err := core.Train(b.Graph, p.Train)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: training failed: %w", p.Name, err)
	}

	// Snapshot round-trip: the serving layer must load bit-identical
	// parameters from the one snapshot file, through the CRC-verifying
	// copying loader here and the mapped open in checkMappedPath.
	snapPath := filepath.Join(dir, p.Name+".v2.snap")
	if err := store.SaveV2(snapPath, model); err != nil {
		return nil, fmt.Errorf("scenario %s: snapshot save failed: %w", p.Name, err)
	}
	loaded, err := store.LoadFile(snapPath)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: snapshot load failed: %w", p.Name, err)
	}

	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	if err := equalModels(model, loaded); err != nil {
		fail("snapshot round-trip: %v", err)
	}

	// Serve from the loaded snapshot with full posting lists, so
	// single-word ranking is exact by construction and any disagreement
	// with the full scan is a real index bug.
	engine := serve.New(loaded, b.Vocab, serve.Options{
		PostingsPerWord: loaded.Cfg.NumCommunities,
	})
	defer engine.Close()

	st := b.Graph.Stats()
	m := &Metrics{
		Preset: p.Name,
		Users:  st.Users, Docs: st.Docs,
		FriendLinks: st.FriendLinks, DiffLinks: st.DiffLinks,
		Vocab: st.Words,
	}

	m.NMI = nmiAgainstTruth(b, loaded)
	if m.NMI < p.MinNMI {
		fail("NMI %.4f below the scenario floor %.2f", m.NMI, p.MinNMI)
	}
	m.DiffusionAUC = diffusionAUC(b, loaded)
	if p.MinDiffusionAUC > 0 && m.DiffusionAUC < p.MinDiffusionAUC {
		fail("diffusion AUC %.4f below the scenario floor %.2f", m.DiffusionAUC, p.MinDiffusionAUC)
	}
	m.RankAgreement = rankAgreement(engine, loaded)
	if m.RankAgreement < 1 {
		fail("rank index agrees with the full scan on only %.0f%% of probe queries", 100*m.RankAgreement)
	}

	// Structural quality over the friendship graph, recorded on the engine
	// so the HTTP pass below exercises /api/quality against real history —
	// plus the PLP baseline as the comparison row, scored against the same
	// planted truth the model is.
	qr := quality.FromModel(loaded, b.Graph.Friends, nil)
	qr.Generation = 1
	m.Modularity = qr.Modularity
	m.Coverage = qr.Coverage
	m.AvgConductance = qr.AvgConductance
	m.SizeP50 = qr.SizeP50
	engine.RecordQuality(serve.DefaultSnapshot, qr)
	if len(b.Graph.Friends) > 0 {
		res := baselines.PLP(loaded.NumUsers, b.Graph.Friends, baselines.PLPOptions{Seed: p.Synth.Seed})
		m.PLPNMI = eval.NMI(res.Labels, b.Truth.HomeCommunity[:loaded.NumUsers])
		br := quality.Compute(res.Labels, res.Communities, b.Graph.Friends, nil)
		br.Algo = "plp"
		engine.RecordQualityBaseline(serve.DefaultSnapshot, br)
	}
	if err := checkFoldInDeterminism(engine, b); err != nil {
		fail("%v", err)
	}
	if err := checkMembershipAgreement(engine, loaded); err != nil {
		fail("%v", err)
	}
	if err := checkMappedPath(snapPath, model, engine, b); err != nil {
		fail("%v", err)
	}
	if !opts.SkipHTTP {
		if err := checkHTTPSurface(engine, b); err != nil {
			fail("%v", err)
		}
	}

	if len(problems) > 0 {
		return m, fmt.Errorf("scenario %s: %s", p.Name, strings.Join(problems, "; "))
	}
	return m, nil
}

// equalModels verifies that every parameter block survived serialization
// bit-identically.
func equalModels(a, b *core.Model) error {
	// Workers is the training host's worker count, which snapshots do not
	// persist: not a parameter block.
	acfg, bcfg := a.Cfg, b.Cfg
	acfg.Workers, bcfg.Workers = 0, 0
	checks := []struct {
		name     string
		got, exp any
	}{
		{"config", bcfg, acfg},
		{"dims", [4]int{b.NumUsers, b.NumWords, b.NumBuckets, b.NumAttrs},
			[4]int{a.NumUsers, a.NumWords, a.NumBuckets, a.NumAttrs}},
		{"pi", b.Pi.Data, a.Pi.Data},
		{"theta", b.Theta.Data, a.Theta.Data},
		{"phi", b.Phi.Data, a.Phi.Data},
		{"eta", b.Eta.Data, a.Eta.Data},
		{"nu", b.Nu, a.Nu},
		{"doc communities", b.DocCommunity, a.DocCommunity},
		{"doc topics", b.DocTopic, a.DocTopic},
		{"doc buckets", b.DocBucket, a.DocBucket},
	}
	for _, c := range checks {
		if !reflect.DeepEqual(c.got, c.exp) {
			return fmt.Errorf("%s not bit-identical after snapshot round-trip", c.name)
		}
	}
	return nil
}

// nmiAgainstTruth scores hard detected communities against the planted
// home communities.
func nmiAgainstTruth(b *Bundle, m *core.Model) float64 {
	detected := make([]int32, m.NumUsers)
	for u := range detected {
		detected[u] = int32(m.TopCommunity(u))
	}
	return eval.NMI(detected, b.Truth.HomeCommunity[:m.NumUsers])
}

// diffusionAUC scores observed diffusion links against sampled non-links,
// the integration suite's held-in discrimination check.
func diffusionAUC(b *Bundle, m *core.Model) float64 {
	g := b.Graph
	var pos []float64
	for k, e := range g.Diffs {
		if k%4 == 0 {
			pos = append(pos, m.DiffusionProb(g, int(g.Docs[e.I].User), int(e.J), m.DocBucket[e.I]))
		}
	}
	if len(pos) == 0 {
		return math.NaN()
	}
	var neg []float64
	for _, p := range eval.SampleNegativeDocPairs(g, len(pos), 5) {
		neg = append(neg, m.DiffusionProb(g, int(g.Docs[p[0]].User), p[1], m.DocBucket[p[0]]))
	}
	return eval.AUC(pos, neg)
}

// rankAgreement probes single-word queries across the vocabulary and
// reports the fraction whose full engine ranking matches the model's
// exact Eq. 19 scan (scores within 1e-9 relative, same ordering of
// distinct scores).
func rankAgreement(e *serve.Engine, m *core.Model) float64 {
	V, C := m.NumWords, m.Cfg.NumCommunities
	stride := V / 12
	if stride < 1 {
		stride = 1
	}
	probes, agree := 0, 0
	for w := 0; w < V; w += stride {
		probes++
		want := m.RankCommunities([]int32{int32(w)})
		res, err := e.RankIn(serve.DefaultSnapshot, []int32{int32(w)}, C)
		if err != nil {
			continue
		}
		got := make([]float64, C)
		for _, entry := range res.Entries {
			got[entry.Community] = entry.Score
		}
		ok := true
		for c := range want {
			if diff := math.Abs(want[c] - got[c]); diff > 1e-9*(math.Abs(want[c])+1e-12) {
				ok = false
				break
			}
		}
		if ok {
			agree++
		}
	}
	if probes == 0 {
		return math.NaN()
	}
	return float64(agree) / float64(probes)
}

// checkFoldInDeterminism folds the same unseen user in twice directly and
// twice more through the batch pool, requiring bit-identical results.
func checkFoldInDeterminism(e *serve.Engine, b *Bundle) error {
	g := b.Graph
	req := &serve.FoldInRequest{
		Docs: [][]int32{g.Docs[0].Words, g.Docs[len(g.Docs)/2].Words},
		Seed: 77,
	}
	if len(g.Friends) > 0 {
		req.Friends = []int32{g.Friends[0].U}
	}
	first, err := e.FoldInNamed(serve.DefaultSnapshot, req)
	if err != nil {
		return fmt.Errorf("fold-in failed: %w", err)
	}
	second, err := e.FoldInNamed(serve.DefaultSnapshot, req)
	if err != nil {
		return fmt.Errorf("fold-in failed on repeat: %w", err)
	}
	if !reflect.DeepEqual(first, second) {
		return errors.New("fold-in is not deterministic for a fixed seed")
	}
	batch, errs := e.FoldInBatchNamed(serve.DefaultSnapshot, []*serve.FoldInRequest{req, req})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("fold-in batch failed: %w", err)
		}
	}
	if !reflect.DeepEqual(batch[0], first) || !reflect.DeepEqual(batch[1], first) {
		return errors.New("batched fold-in disagrees with the direct path")
	}
	return nil
}

// checkMappedPath verifies the zero-copy serving path end to end: the
// model round-trips bit-identically through the v2 snapshot at v2Path
// opened via store.Open, a multi-snapshot engine serving the mapped model
// answers rank/membership/fold-in queries identically to the heap engine,
// and a mapped hot-reload mid-flight leaves answers unchanged.
func checkMappedPath(v2Path string, model *core.Model, heap *serve.Engine, b *Bundle) error {
	mm, err := store.Open(v2Path)
	if err != nil {
		return fmt.Errorf("v2 snapshot open failed: %w", err)
	}
	if err := equalModels(model, mm.Model); err != nil {
		return fmt.Errorf("mapped model: %v", err)
	}

	engine := serve.NewMulti(serve.Options{
		PostingsPerWord: model.Cfg.NumCommunities,
		Mmap:            true,
	})
	defer engine.Close()
	engine.SwapMapped("mapped", mm, b.Vocab)

	// Probe queries must answer identically through heap and mapped
	// engines (same model bits, same index construction).
	V := model.NumWords
	for _, w := range []int{0, V / 3, V - 1} {
		want, err1 := heap.RankIn(serve.DefaultSnapshot, []int32{int32(w)}, 5)
		got, err2 := engine.RankIn("mapped", []int32{int32(w)}, 5)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("mapped rank probe failed: %v / %v", err1, err2)
		}
		if !rankEntriesEqual(want, got) {
			return fmt.Errorf("mapped engine ranks word %d differently from the heap engine", w)
		}
	}
	for _, u := range []int{0, model.NumUsers - 1} {
		want, err1 := heap.MembershipIn(serve.DefaultSnapshot, u, 3)
		got, err2 := engine.MembershipIn("mapped", u, 3)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("mapped membership probe failed: %v / %v", err1, err2)
		}
		if !reflect.DeepEqual(want.Communities, got.Communities) {
			return fmt.Errorf("mapped engine serves user %d a different membership", u)
		}
	}
	req := &serve.FoldInRequest{Docs: [][]int32{b.Graph.Docs[0].Words}, Seed: 99}
	want, err := heap.FoldInNamed(serve.DefaultSnapshot, req)
	if err != nil {
		return fmt.Errorf("heap fold-in failed: %w", err)
	}
	got, err := engine.FoldInNamed("mapped", req)
	if err != nil {
		return fmt.Errorf("mapped fold-in failed: %w", err)
	}
	want.Version, got.Version = 0, 0
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("mapped fold-in disagrees with the heap engine")
	}

	// A mapped hot-reload must leave answers unchanged (same file).
	if _, err := engine.LoadGeneration("mapped", v2Path, b.Vocab, 0); err != nil {
		return fmt.Errorf("mapped reload failed: %w", err)
	}
	want2, err1 := heap.RankIn(serve.DefaultSnapshot, []int32{1}, 5)
	got2, err2 := engine.RankIn("mapped", []int32{1}, 5)
	if err1 != nil || err2 != nil || !rankEntriesEqual(want2, got2) {
		return fmt.Errorf("answers drifted across a mapped hot-reload (%v / %v)", err1, err2)
	}
	return nil
}

// rankEntriesEqual compares rank results ignoring the snapshot version.
func rankEntriesEqual(a, b *serve.RankResult) bool {
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}

// checkMembershipAgreement compares served memberships against the model.
func checkMembershipAgreement(e *serve.Engine, m *core.Model) error {
	for _, u := range []int{0, m.NumUsers / 2, m.NumUsers - 1} {
		res, err := e.MembershipIn(serve.DefaultSnapshot, u, 3)
		if err != nil {
			return fmt.Errorf("membership query for user %d failed: %w", u, err)
		}
		if len(res.Communities) == 0 || res.Communities[0].Community != m.TopCommunity(u) {
			return fmt.Errorf("served membership for user %d disagrees with the model", u)
		}
	}
	return nil
}

// checkHTTPSurface drives one query of every kind through the JSON API
// handler — the exact surface cmd/cpd-serve exposes — so a scenario run
// exercises the service end to end, not just the library seam.
func checkHTTPSurface(e *serve.Engine, b *Bundle) error {
	h := serve.APIHandler(e, nil)
	get := func(path string) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("HTTP GET %s: status %d: %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		return nil
	}
	paths := []string{
		"/api/communities",
		"/api/community?id=0",
		"/api/user?id=0&k=3",
		"/api/rank?w=1&k=3",
		fmt.Sprintf("/api/rank?q=%s&k=3", b.Vocab.Word(1)),
		"/api/diffusion?u=0&v=1&topic=0",
		"/api/stats",
		"/api/quality",
		"/metrics",
		"/healthz",
	}
	for _, p := range paths {
		if err := get(p); err != nil {
			return err
		}
	}
	body := fmt.Sprintf(`{"docs":[%s],"seed":3}`, int32JSON(b.Graph.Docs[0].Words))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/foldin", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("HTTP POST /api/foldin: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return nil
}

func int32JSON(xs []int32) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, x := range xs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", x)
	}
	sb.WriteByte(']')
	return sb.String()
}
