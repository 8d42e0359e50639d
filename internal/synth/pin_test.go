package synth

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/socialgraph"
)

// TestGeneratePinned holds Generate to the graphs and ground truth it
// produced before its fixed distributions were drawn through prepared
// cumulative tables: an FNV-64 over every document, link, attribute token
// and planted parameter. A changed digest means a changed draw sequence,
// which would silently move every scenario and experiment built on synth.
func TestGeneratePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	knobs := TwitterLike(120, 13)
	knobs.Name = "twitter-knobs"
	knobs.VocabZipf = 0.8
	knobs.SpamWords = 30
	knobs.AttrVocab = 60
	knobs.AttrsPerUserMean = 3
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{TwitterLike(150, 99), "196400cc69b1d58d"},
		{DBLPLike(200, 7), "c6ca8e25aa1e5e82"},
		{knobs, "da1f76e09107f422"},
	} {
		g, gt := Generate(tc.cfg)
		if got := generateDigest(g, gt); got != tc.want {
			t.Errorf("%s seed %d: digest %s, want %s", tc.cfg.Name, tc.cfg.Seed, got, tc.want)
		}
	}
}

func generateDigest(g *socialgraph.Graph, gt *GroundTruth) string {
	d := digest{fnv.New64a()}
	d.ints(int64(g.NumUsers), int64(g.NumWords), int64(g.NumAttrs), int64(len(g.Docs)))
	for _, doc := range g.Docs {
		d.ints(int64(doc.User), doc.Time)
		d.int32s(doc.Words)
	}
	d.ints(int64(len(g.Friends)))
	for _, f := range g.Friends {
		d.ints(int64(f.U), int64(f.V))
	}
	d.ints(int64(len(g.Diffs)))
	for _, e := range g.Diffs {
		d.ints(int64(e.I), int64(e.J), e.T)
	}
	d.ints(int64(len(g.Attrs)))
	for _, as := range g.Attrs {
		d.int32s(as)
	}
	d.int32s(gt.HomeCommunity)
	d.int32s(gt.DocCommunity)
	d.int32s(gt.DocTopic)
	d.ints(int64(len(gt.TopicPeak)))
	for _, v := range gt.TopicPeak {
		d.ints(int64(v))
	}
	d.floats(gt.UserProminence)
	d.floats(gt.Pi.Data)
	d.floats(gt.Theta.Data)
	d.floats(gt.Phi.Data)
	d.floats(gt.Eta.Data)
	if gt.Xi != nil {
		d.floats(gt.Xi.Data)
	}
	return fmt.Sprintf("%016x", d.Sum64())
}

// digest feeds values to a hash as eight little-endian bytes each; every
// slice is preceded by its length.
type digest struct{ hash.Hash64 }

func (d digest) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.Write(b[:])
	}
}

func (d digest) int32s(vs []int32) {
	d.ints(int64(len(vs)))
	for _, v := range vs {
		d.ints(int64(v))
	}
}

func (d digest) floats(vs []float64) {
	d.ints(int64(len(vs)))
	for _, v := range vs {
		d.ints(int64(math.Float64bits(v)))
	}
}
