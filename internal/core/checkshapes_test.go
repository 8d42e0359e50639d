package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// TestCheckShapesRejectsInconsistentModels: deserialized models that lie
// about their shapes must fail loading, never panic serving. The
// missing-popularity case is the review regression: NumBuckets > 0 with
// no PopFreq block used to pass validation and nil-panic the diffusion
// path on the first bucketed query.
func TestCheckShapesRejectsInconsistentModels(t *testing.T) {
	valid := func() *Model {
		return &Model{
			Cfg:      Config{NumCommunities: 3, NumTopics: 2}.WithDefaults(),
			NumUsers: 4, NumWords: 5, NumBuckets: 2,
			Pi:      sparse.NewDense(4, 3),
			Theta:   sparse.NewDense(3, 2),
			Phi:     sparse.NewDense(2, 5),
			Eta:     sparse.NewTensor3(3, 3, 2),
			PopFreq: sparse.NewDense(2, 2),
		}
	}
	if err := valid().CheckShapes(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	cases := []struct {
		name   string
		break_ func(*Model)
	}{
		{"buckets without popularity block", func(m *Model) { m.PopFreq = nil }},
		{"pi rows disagree", func(m *Model) { m.NumUsers = 9 }},
		{"data shorter than claimed", func(m *Model) { m.Phi.Data = m.Phi.Data[:3] }},
		{"negative dimension", func(m *Model) { m.NumWords = -1 }},
		{"zero communities", func(m *Model) { m.Cfg.NumCommunities = 0 }},
		{"eta dims disagree", func(m *Model) { m.Eta = sparse.NewTensor3(3, 2, 2) }},
		{"assignment lengths disagree", func(m *Model) { m.DocCommunity = []int32{0} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := valid()
			tc.break_(m)
			if err := m.CheckShapes(); err == nil {
				t.Fatal("inconsistent model accepted")
			}
		})
	}

	// The JSON loader must apply the same rules end to end.
	m := valid()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(buf.String(), `"NumUsers":4`, `"NumUsers":40`, 1)
	if _, err := Load(strings.NewReader(mangled)); err == nil {
		t.Fatal("Load accepted a model whose dimensions disagree with its blocks")
	}
	popless := valid()
	popless.PopFreq = nil
	buf.Reset()
	if err := json.NewEncoder(&buf).Encode(popless); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("Load accepted NumBuckets > 0 without a popularity block")
	}
}
