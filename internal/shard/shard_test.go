package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
	"repro/internal/store"
)

// testModel assembles a deterministic model directly from random parameter
// blocks, shaped like a small trained CPD model.
func testModel(users, C, Z, V int, seed uint64) *core.Model {
	r := rng.New(seed)
	m := &core.Model{
		Cfg: core.Config{
			NumCommunities: C, NumTopics: Z, Seed: seed,
		}.WithDefaults(),
		NumUsers:   users,
		NumWords:   V,
		NumBuckets: 4,
		Pi:         sparse.NewDense(users, C),
		Theta:      sparse.NewDense(C, Z),
		Phi:        sparse.NewDense(Z, V),
		Eta:        sparse.NewTensor3(C, C, Z),
		Nu:         make([]float64, socialgraph.FeatureDim),
		PopFreq:    sparse.NewDense(4, Z),
	}
	fill := func(xs []float64) {
		for i := range xs {
			xs[i] = r.Float64()
		}
	}
	fill(m.Pi.Data)
	fill(m.Theta.Data)
	fill(m.Phi.Data)
	fill(m.Eta.Data)
	fill(m.Nu)
	fill(m.PopFreq.Data)
	m.Pi.NormalizeRows()
	m.Theta.NormalizeRows()
	m.Phi.NormalizeRows()
	m.PopFreq.NormalizeRows()
	docs := 3 * users
	m.DocCommunity = make([]int32, docs)
	m.DocTopic = make([]int32, docs)
	m.DocBucket = make([]int, docs)
	for i := 0; i < docs; i++ {
		m.DocCommunity[i] = int32(r.Intn(C))
		m.DocTopic[i] = int32(r.Intn(Z))
		m.DocBucket[i] = r.Intn(4)
	}
	m.Rehydrate()
	return m
}

// splitJoinIdentical asserts that splitting src into shards and joining it
// back reproduces the source file byte-for-byte.
func splitJoinIdentical(t *testing.T, src string, shards int) *Manifest {
	t.Helper()
	dir := t.TempDir()
	man, err := Split(src, dir, 7, SplitOptions{Shards: shards})
	if err != nil {
		t.Fatalf("Split(%d shards): %v", shards, err)
	}
	if man.Shards != shards {
		t.Fatalf("manifest has %d shards, want %d", man.Shards, shards)
	}
	assertStateLayout(t, dir, man)
	joined := filepath.Join(dir, "joined.v2.snap")
	if err := Join(dir, 7, joined); err != nil {
		t.Fatalf("Join: %v", err)
	}
	want, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(joined)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("join of %d-shard split is not byte-identical (%d vs %d bytes)", shards, len(got), len(want))
	}
	return man
}

func TestSplitJoinGoldenFixture(t *testing.T) {
	src := filepath.Join("..", "store", "testdata", "golden-v2.snap")
	for _, shards := range []int{1, 2, 3, 5} {
		splitJoinIdentical(t, src, shards)
	}
}

func TestSplitJoinGeneratedModels(t *testing.T) {
	cases := []struct {
		name   string
		users  int
		shards int
		attrs  int
	}{
		{"one-user", 1, 3, 0},
		{"users-eq-shards", 4, 4, 0},
		{"fewer-users-than-shards", 2, 5, 0},
		{"typical", 60, 3, 0},
		{"with-attrs", 37, 4, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := testModel(tc.users, 6, 4, 90, uint64(tc.users)*31+uint64(tc.shards))
			if tc.attrs > 0 {
				m.NumAttrs = tc.attrs
				m.Xi = sparse.NewDense(m.Cfg.NumCommunities, tc.attrs)
				for i := range m.Xi.Data {
					m.Xi.Data[i] = float64(i) / float64(len(m.Xi.Data))
				}
			}
			src := filepath.Join(t.TempDir(), "full.v2.snap")
			if err := store.SaveV2(src, m); err != nil {
				t.Fatal(err)
			}
			splitJoinIdentical(t, src, tc.shards)
		})
	}
}

func TestPlanRangesProperties(t *testing.T) {
	check := func(t *testing.T, users, shards, cols int) []Range {
		t.Helper()
		ranges, err := PlanRanges(users, shards, cols)
		if err != nil {
			t.Fatalf("PlanRanges(%d,%d): %v", users, shards, err)
		}
		if len(ranges) != shards {
			t.Fatalf("got %d ranges, want %d", len(ranges), shards)
		}
		wantU := 0
		for i, r := range ranges {
			if r.Index != i || r.UserLo != wantU || r.UserHi < r.UserLo {
				t.Fatalf("range %d does not tile: %+v", i, r)
			}
			wantU = r.UserHi
		}
		if wantU != users {
			t.Fatalf("ranges cover %d/%d users", wantU, users)
		}
		return ranges
	}

	t.Run("one-user", func(t *testing.T) {
		ranges := check(t, 1, 4, 8)
		if ranges[0].UserHi != 1 {
			t.Fatalf("single user should land in shard 0: %+v", ranges)
		}
	})
	t.Run("users-eq-shards", func(t *testing.T) {
		ranges := check(t, 5, 5, 8)
		for i, r := range ranges {
			if r.UserHi-r.UserLo != 1 {
				t.Fatalf("shard %d holds %d users, want exactly 1", i, r.UserHi-r.UserLo)
			}
		}
	})
	t.Run("boundary-ownership", func(t *testing.T) {
		ranges := check(t, 97, 7, 16)
		man := &Manifest{Shards: 7, Users: 97, Ranges: ranges}
		for u := 0; u < 97; u++ {
			owners := 0
			for _, r := range ranges {
				if u >= r.UserLo && u < r.UserHi {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("user %d owned by %d ranges", u, owners)
			}
			if k := man.Owner(u); u < ranges[k].UserLo || u >= ranges[k].UserHi {
				t.Fatalf("Owner(%d)=%d disagrees with the ranges", u, k)
			}
		}
		if man.Owner(-1) != -1 || man.Owner(97) != -1 {
			t.Fatalf("out-of-range users must have no owner")
		}
	})
	t.Run("zero-shards", func(t *testing.T) {
		if _, err := PlanRanges(10, 0, 0); err == nil {
			t.Fatal("want error for zero shards")
		}
	})
}

func TestManifestCorruptionDetected(t *testing.T) {
	m := testModel(20, 4, 3, 50, 5)
	src := filepath.Join(t.TempDir(), "full.v2.snap")
	if err := store.SaveV2(src, m); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	man, err := Split(src, dir, 3, SplitOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	manPath := ManifestPath(dir, 3)
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(manPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(manPath); err == nil {
		t.Fatal("corrupted manifest must not decode")
	}
	if err := os.WriteFile(manPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A flipped byte in a shard payload fails manifest verification.
	shardPath := ShardPath(dir, 3, 1)
	sraw, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	sraw[len(sraw)-1] ^= 0x01
	if err := os.WriteFile(shardPath, sraw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstManifest(shardPath, man.Ranges[1].File); err == nil {
		t.Fatal("corrupted shard file must fail verification")
	}
}

func TestOpenGroup(t *testing.T) {
	m := testModel(50, 6, 4, 80, 23)
	src := filepath.Join(t.TempDir(), "full.v2.snap")
	if err := store.SaveV2(src, m); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	man, err := Split(src, dir, 11, SplitOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < man.Shards; k++ {
		g, err := OpenGroup(dir, man, k)
		if err != nil {
			t.Fatalf("OpenGroup(%d): %v", k, err)
		}
		r := man.Ranges[k]
		if g.Info.UserLo != r.UserLo || g.Info.UserHi != r.UserHi || g.Info.TotalUsers != 50 || g.Info.Count != 3 {
			t.Fatalf("shard %d info %+v disagrees with range %+v", k, g.Info, r)
		}
		if g.MappedBytes <= 0 {
			t.Fatalf("shard %d reports no mapped bytes", k)
		}
		lm := g.Model
		if lm.NumUsers != r.UserHi-r.UserLo {
			t.Fatalf("shard %d model holds %d users, want %d", k, lm.NumUsers, r.UserHi-r.UserLo)
		}
		// Local Π rows must be the full model's rows for the owned range.
		for u := r.UserLo; u < r.UserHi; u++ {
			want := m.Pi.Row(u)
			got := lm.Pi.Row(u - r.UserLo)
			for c := range want {
				if want[c] != got[c] {
					t.Fatalf("shard %d user %d Π differs at column %d", k, u, c)
				}
			}
		}
		// Global sections must be the full model's, bit-for-bit.
		if !bytes.Equal(float64Bytes(lm.Theta.Data), float64Bytes(m.Theta.Data)) ||
			!bytes.Equal(float64Bytes(lm.Phi.Data), float64Bytes(m.Phi.Data)) ||
			!bytes.Equal(float64Bytes(lm.Eta.Data), float64Bytes(m.Eta.Data)) {
			t.Fatalf("shard %d global sections differ from the full model", k)
		}
		for u := r.UserLo; u < r.UserHi; u++ {
			if !g.Info.Owns(u) {
				t.Fatalf("shard %d should own user %d", k, u)
			}
		}
		if k > 0 && g.Info.Owns(0) {
			t.Fatalf("shard %d must not own user 0", k)
		}
		if err := g.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	if _, err := OpenGroup(dir, man, 3); err == nil {
		t.Fatal("out-of-range shard index must fail")
	}
}

func float64Bytes(xs []float64) []byte {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return buf
}

func TestPublisherMatchesFullSnapshot(t *testing.T) {
	dir := t.TempDir()
	pub, err := NewPublisher(dir, 3)
	if err != nil {
		t.Fatal(err)
	}

	m1 := testModel(45, 6, 4, 70, 41)
	man1, err := pub.Publish(1, m1, Delta{Full: true})
	if err != nil {
		t.Fatalf("publish gen 1: %v", err)
	}
	assertJoinMatches(t, dir, 1, m1)

	// Incremental publish: fresh Π array (the stream updater's invariant),
	// two changed rows, aliased document arrays.
	m2 := clonePi(m1)
	m2.Pi.Row(3)[0] += 0.5
	m2.Pi.Row(44)[1] += 0.25
	man2, err := pub.Publish(2, m2, Delta{ChangedUsers: []int32{3, 44}})
	if err != nil {
		t.Fatalf("publish gen 2: %v", err)
	}
	assertJoinMatches(t, dir, 2, m2)
	// User 3 lives in shard 0 and user 44 in the last shard; the middle
	// shard and the global file must be hard links to generation 1.
	if owner := man2.Owner(3); owner != 0 {
		t.Fatalf("user 3 owned by shard %d, want 0", owner)
	}
	if owner := man2.Owner(44); owner != man2.Shards-1 {
		t.Fatalf("user 44 owned by shard %d, want last", owner)
	}
	assertSameFile(t, ShardPath(dir, 1, 1), ShardPath(dir, 2, 1))
	assertSameFile(t, GlobalPath(dir, 1), GlobalPath(dir, 2))
	assertSameFile(t, StatePath(dir, 1), StatePath(dir, 2))
	if man2.Ranges[1].File.Sections[0].CRC != man1.Ranges[1].File.Sections[0].CRC {
		t.Fatalf("linked shard must reuse the previous file entry")
	}

	// Growth publish: appended users and documents (fresh doc arrays). The
	// global file holds no user count, so it is still a link; the state
	// file and the shard files of changed users are written.
	m3 := growModel(m2, 8, 20, 77)
	written := pub.WrittenFiles
	man3, err := pub.Publish(3, m3, Delta{ChangedUsers: []int32{10}})
	if err != nil {
		t.Fatalf("publish gen 3: %v", err)
	}
	assertJoinMatches(t, dir, 3, m3)
	assertSameFile(t, GlobalPath(dir, 2), GlobalPath(dir, 3))
	if sameFile(t, StatePath(dir, 2), StatePath(dir, 3)) {
		t.Fatal("fresh document arrays must rewrite the state file")
	}
	shardsWritten, bytes3 := 0, statSize(t, ManifestPath(dir, 3))+statSize(t, StatePath(dir, 3))
	for i := range man3.Ranges {
		if !sameFile(t, ShardPath(dir, 2, i), ShardPath(dir, 3, i)) {
			shardsWritten++
			bytes3 += statSize(t, ShardPath(dir, 3, i))
		}
	}
	if shardsWritten == 0 || pub.WrittenFiles-written != uint64(1+shardsWritten) {
		t.Fatalf("gen 3 wrote %d files, %d of them shard files", pub.WrittenFiles-written, shardsWritten)
	}
	if want := (PublishStats{FilesWritten: 1 + shardsWritten, FilesLinked: 1 + man3.Shards - shardsWritten, BytesWritten: bytes3}); pub.Last != want {
		t.Fatalf("gen 3 stats %+v, want %+v", pub.Last, want)
	}

	// A Full publish (delta-Gibbs, forced rebuild) writes the global file.
	if _, err := pub.Publish(4, m3, Delta{Full: true}); err != nil {
		t.Fatalf("publish gen 4: %v", err)
	}
	assertJoinMatches(t, dir, 4, m3)
	if sameFile(t, GlobalPath(dir, 3), GlobalPath(dir, 4)) {
		t.Fatal("a Full publish must write a new global file")
	}

	// Every generation's files verify against their manifests.
	for gen := uint64(1); gen <= 4; gen++ {
		man, err := ReadManifest(ManifestPath(dir, gen))
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyAgainstManifest(GlobalPath(dir, gen), man.Global); err != nil {
			t.Fatalf("gen %d global: %v", gen, err)
		}
		if err := VerifyAgainstManifest(StatePath(dir, gen), *man.State); err != nil {
			t.Fatalf("gen %d state: %v", gen, err)
		}
		for i := range man.Ranges {
			if err := VerifyAgainstManifest(ShardPath(dir, gen, i), man.Ranges[i].File); err != nil {
				t.Fatalf("gen %d shard %d: %v", gen, i, err)
			}
		}
	}

	// Prune removes generations at or below the cut, leaving newer ones.
	Prune(dir, 2)
	if _, err := ReadManifest(ManifestPath(dir, 1)); err == nil {
		t.Fatal("generation 1 should be pruned")
	}
	for _, path := range []string{GlobalPath(dir, 2), StatePath(dir, 2)} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("generation 2 file %s should be pruned", path)
		}
	}
	if _, err := ReadManifest(ManifestPath(dir, 3)); err != nil {
		t.Fatalf("generation 3 should survive the prune: %v", err)
	}
}

// TestPublisherEncodesPatchedInPlacePi: the updater patches Π inside the
// array it published last time whenever the engine serves the file mapping
// instead, so the publisher is handed the very array it encoded before,
// with other bytes in it. Shard 1 is written at generation 1, linked at 2
// and dirty at 3 over the same-length Π: every file of generation 3 must
// be what Split makes of the full snapshot of that model, byte for byte.
func TestPublisherEncodesPatchedInPlacePi(t *testing.T) {
	dir := t.TempDir()
	pub, err := NewPublisher(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(45, 6, 4, 70, 43)
	man, err := pub.Publish(1, m, Delta{Full: true})
	if err != nil {
		t.Fatalf("publish gen 1: %v", err)
	}
	inShard1 := int32(man.Ranges[1].UserLo)

	m.Pi.Row(3)[0] += 0.5 // shard 0
	if _, err := pub.Publish(2, m, Delta{ChangedUsers: []int32{3}}); err != nil {
		t.Fatalf("publish gen 2: %v", err)
	}
	assertSameFile(t, ShardPath(dir, 1, 1), ShardPath(dir, 2, 1))
	assertJoinMatches(t, dir, 2, m)

	m.Pi.Row(int(inShard1))[1] += 0.25
	man3, err := pub.Publish(3, m, Delta{ChangedUsers: []int32{inShard1}})
	if err != nil {
		t.Fatalf("publish gen 3: %v", err)
	}
	assertJoinMatches(t, dir, 3, m)

	full := filepath.Join(t.TempDir(), "full.v2.snap")
	if err := store.SaveV2(full, m); err != nil {
		t.Fatal(err)
	}
	splitDir := t.TempDir()
	// The user count never grew, so Split plans the publisher's boundaries.
	split, err := Split(full, splitDir, 3, SplitOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(split.Ranges, man3.Ranges) {
		t.Fatalf("Split's ranges %+v, the publisher's %+v", split.Ranges, man3.Ranges)
	}
	same := func(a, b string) {
		t.Helper()
		want, err := os.ReadFile(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s differs from %s", filepath.Base(b), a)
		}
	}
	same(GlobalPath(splitDir, 3), GlobalPath(dir, 3))
	same(StatePath(splitDir, 3), StatePath(dir, 3))
	for i := range man3.Ranges {
		same(ShardPath(splitDir, 3, i), ShardPath(dir, 3, i))
	}
}

// TestPublisherRelinksShardsOnDocumentChange: shard files hold only Π, so
// a publish with fresh document assignments whose changed users all fall in
// shard 0 hard-links every other shard file and rewrites only shard 0 and
// the state file — and the group still joins to the full snapshot.
func TestPublisherRelinksShardsOnDocumentChange(t *testing.T) {
	dir := t.TempDir()
	pub, err := NewPublisher(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	m1 := testModel(60, 6, 4, 70, 47)
	if _, err := pub.Publish(1, m1, Delta{Full: true}); err != nil {
		t.Fatalf("publish gen 1: %v", err)
	}

	m2 := clonePi(m1)
	m2.Pi.Row(2)[0] += 0.5
	r := rng.New(48)
	m2.DocCommunity = make([]int32, len(m1.DocCommunity))
	m2.DocTopic = make([]int32, len(m1.DocTopic))
	for i := range m2.DocCommunity {
		m2.DocCommunity[i] = int32(r.Intn(m2.Cfg.NumCommunities))
		m2.DocTopic[i] = int32(r.Intn(m2.Cfg.NumTopics))
	}
	man2, err := pub.Publish(2, m2, Delta{ChangedUsers: []int32{2}})
	if err != nil {
		t.Fatalf("publish gen 2: %v", err)
	}
	if owner := man2.Owner(2); owner != 0 {
		t.Fatalf("user 2 owned by shard %d, want 0", owner)
	}
	for i := 1; i < man2.Shards; i++ {
		assertSameFile(t, ShardPath(dir, 1, i), ShardPath(dir, 2, i))
	}
	for _, pair := range [][2]string{{ShardPath(dir, 1, 0), ShardPath(dir, 2, 0)}, {StatePath(dir, 1), StatePath(dir, 2)}} {
		if sameFile(t, pair[0], pair[1]) {
			t.Fatalf("%s should be rewritten", filepath.Base(pair[1]))
		}
	}
	if want := (PublishStats{FilesWritten: 2, FilesLinked: man2.Shards, BytesWritten: statSize(t, ShardPath(dir, 2, 0)) +
		statSize(t, StatePath(dir, 2)) + statSize(t, ManifestPath(dir, 2))}); pub.Last != want {
		t.Fatalf("gen 2 stats %+v, want %+v", pub.Last, want)
	}
	assertJoinMatches(t, dir, 2, m2)
}

// TestDocWindowGroupOpens: a group written while the shard files still
// carried a window of the document arrays — a manifest with doc ranges and
// no state entry — still decodes and opens to the model today's layout
// opens to, but does not join.
func TestDocWindowGroupOpens(t *testing.T) {
	m := testModel(40, 6, 4, 60, 31)
	src := filepath.Join(t.TempDir(), "full.v2.snap")
	if err := store.SaveV2(src, m); err != nil {
		t.Fatal(err)
	}
	dir, oldDir := t.TempDir(), t.TempDir()
	man, err := Split(src, dir, 5, SplitOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Split(src, oldDir, 5, SplitOptions{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	docs := len(m.DocCommunity)
	doc := map[string]any{}
	raw, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "state")
	doc["docs"] = docs
	for i, r := range man.Ranges {
		lo, hi := docs*r.UserLo/m.NumUsers, docs*r.UserHi/m.NumUsers
		path := ShardPath(oldDir, 5, i)
		rewriteSections(t, path, func(secs []store.RawSection) []store.RawSection {
			window := func(tag string, body []byte, width int) store.RawSection {
				return store.RawSection{Tag: tag, Payload: shapedSlice([]uint64{uint64(hi - lo)}, body[width*lo:width*hi])}
			}
			return append(secs,
				window(store.TagDocC, int32Bytes(m.DocCommunity), 4),
				window(store.TagDocZ, int32Bytes(m.DocTopic), 4),
				window(store.TagDocB, intBytes(m.DocBucket), 8))
		})
		ent, err := fileEntry(path)
		if err != nil {
			t.Fatal(err)
		}
		rd := doc["ranges"].([]any)[i].(map[string]any)
		rd["doc_lo"], rd["doc_hi"], rd["file"] = lo, hi, ent
	}
	payload, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	sealed := append([]byte(fmt.Sprintf("%s %08x\n", manifestMagic, crc32.ChecksumIEEE(payload))), payload...)
	if err := os.WriteFile(ManifestPath(oldDir, 5), sealed, 0o644); err != nil {
		t.Fatal(err)
	}

	oldMan, err := ReadManifest(ManifestPath(oldDir, 5))
	if err != nil {
		t.Fatalf("a manifest with doc windows must still decode: %v", err)
	}
	if oldMan.State != nil {
		t.Fatalf("decoded a state entry %+v from a manifest without one", oldMan.State)
	}
	for k := 0; k < man.Shards; k++ {
		if err := VerifyAgainstManifest(ShardPath(oldDir, 5, k), oldMan.Ranges[k].File); err != nil {
			t.Fatal(err)
		}
		g, err := OpenGroup(dir, man, k)
		if err != nil {
			t.Fatal(err)
		}
		old, err := OpenGroup(oldDir, oldMan, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Model, old.Model) || g.Info != old.Info {
			t.Fatalf("shard %d opens to a different model from the doc-window layout", k)
		}
		g.Close()
		old.Close()
	}
	err = Join(oldDir, 5, filepath.Join(t.TempDir(), "joined.v2.snap"))
	if err == nil || !strings.Contains(err.Error(), "names no state file") {
		t.Fatalf("Join of a group without a state file = %v, want it refused", err)
	}
}

func int32Bytes(xs []int32) []byte {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
	}
	return buf
}

func intBytes(xs []int) []byte {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(int64(x)))
	}
	return buf
}

// clonePi mirrors the stream updater's incremental publish: a brand-new Π
// backing array, every other block aliased.
func clonePi(m *core.Model) *core.Model {
	out := *m
	out.Pi = sparse.NewDense(m.Pi.Rows, m.Pi.Cols)
	copy(out.Pi.Data, m.Pi.Data)
	out.Rehydrate()
	return &out
}

// growModel appends users and documents the way fold-in does: fresh Π and
// document arrays with the old prefix copied in.
func growModel(m *core.Model, moreUsers, moreDocs int, seed uint64) *core.Model {
	r := rng.New(seed)
	out := *m
	out.NumUsers = m.NumUsers + moreUsers
	out.Pi = sparse.NewDense(out.NumUsers, m.Pi.Cols)
	copy(out.Pi.Data, m.Pi.Data)
	for i := len(m.Pi.Data); i < len(out.Pi.Data); i++ {
		out.Pi.Data[i] = r.Float64()
	}
	docs := len(m.DocCommunity) + moreDocs
	out.DocCommunity = make([]int32, docs)
	out.DocTopic = make([]int32, docs)
	out.DocBucket = make([]int, docs)
	copy(out.DocCommunity, m.DocCommunity)
	copy(out.DocTopic, m.DocTopic)
	copy(out.DocBucket, m.DocBucket)
	for i := len(m.DocCommunity); i < docs; i++ {
		out.DocCommunity[i] = int32(r.Intn(m.Cfg.NumCommunities))
		out.DocTopic[i] = int32(r.Intn(m.Cfg.NumTopics))
		out.DocBucket[i] = r.Intn(m.NumBuckets)
	}
	out.Rehydrate()
	return &out
}

// assertJoinMatches checks the published generation's layout, then joins
// it and compares it against a fresh full SaveV2 of the model.
func assertJoinMatches(t *testing.T, dir string, gen uint64, m *core.Model) {
	t.Helper()
	man, err := ReadManifest(ManifestPath(dir, gen))
	if err != nil {
		t.Fatal(err)
	}
	assertStateLayout(t, dir, man)
	joined := filepath.Join(t.TempDir(), "joined.v2.snap")
	if err := Join(dir, gen, joined); err != nil {
		t.Fatalf("join gen %d: %v", gen, err)
	}
	full := filepath.Join(t.TempDir(), "full.v2.snap")
	if err := store.SaveV2(full, m); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(joined)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("generation %d join differs from the full snapshot (%d vs %d bytes)", gen, len(got), len(want))
	}
}

// assertStateLayout holds a group to its layout: the state file the
// manifest names holds exactly the document arrays, and no global or
// shard file holds any of them.
func assertStateLayout(t *testing.T, dir string, man *Manifest) {
	t.Helper()
	docTags := []string{store.TagDocC, store.TagDocZ, store.TagDocB}
	tags := func(name string) []string {
		t.Helper()
		sums, _, err := store.FileSections(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range sums {
			out = append(out, s.Tag)
		}
		return out
	}
	if man.State == nil {
		t.Fatalf("generation %d's manifest names no state file", man.Generation)
	}
	if got := tags(man.State.Name); !slices.Equal(got, docTags) {
		t.Fatalf("state file %s holds %v, want %v", man.State.Name, got, docTags)
	}
	names := []string{man.Global.Name}
	for _, r := range man.Ranges {
		names = append(names, r.File.Name)
	}
	for _, name := range names {
		for _, tag := range tags(name) {
			if slices.Contains(docTags, tag) {
				t.Fatalf("%s holds the document array %s", name, tag)
			}
		}
	}
}

func assertSameFile(t *testing.T, a, b string) {
	t.Helper()
	if !sameFile(t, a, b) {
		t.Fatalf("%s and %s should be hard links of the same file", a, b)
	}
}

func sameFile(t *testing.T, a, b string) bool {
	t.Helper()
	fa, err := os.Stat(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.Stat(b)
	if err != nil {
		t.Fatal(err)
	}
	return os.SameFile(fa, fb)
}

func statSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// rewriteSections rewrites the v2 file at path with edit applied to a
// copy of its sections.
func rewriteSections(t *testing.T, path string, edit func([]store.RawSection) []store.RawSection) {
	t.Helper()
	rf, err := store.OpenRawFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var secs []store.RawSection
	for _, s := range rf.Sections() {
		secs = append(secs, store.RawSection{Tag: s.Tag, Payload: bytes.Clone(s.Payload)})
	}
	rf.Close()
	if err := store.WriteRawFile(path, edit(secs)); err != nil {
		t.Fatal(err)
	}
}

// TestJoinRejectsInconsistentGroups: Join derives the full DIM from the
// shard files, so it refuses a group whose shards disagree on the model's
// shape or on their own user counts, and one whose ranges do not add up to
// the manifest's users.
func TestJoinRejectsInconsistentGroups(t *testing.T) {
	m := testModel(30, 5, 3, 40, 17)
	src := filepath.Join(t.TempDir(), "full.v2.snap")
	if err := store.SaveV2(src, m); err != nil {
		t.Fatal(err)
	}
	setDim := func(word int, v uint64) func([]store.RawSection) []store.RawSection {
		return func(secs []store.RawSection) []store.RawSection {
			for _, s := range secs {
				if s.Tag == store.TagDims {
					binary.LittleEndian.PutUint64(s.Payload[8*word:], v)
				}
			}
			return secs
		}
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string, man *Manifest)
		want    string
	}{
		{"shape-disagrees", func(t *testing.T, dir string, man *Manifest) {
			rewriteSections(t, ShardPath(dir, 3, 2), setDim(1, uint64(m.NumWords+1)))
		}, "shard 2 DIM words 1-3 [41 4 0] disagree with shard 0's [40 4 0]"},
		{"local-count", func(t *testing.T, dir string, man *Manifest) {
			rewriteSections(t, ShardPath(dir, 3, 1), setDim(0, 99))
		}, "shard 1 DIM claims 99 users"},
		{"no-dim", func(t *testing.T, dir string, man *Manifest) {
			rewriteSections(t, ShardPath(dir, 3, 0), func(secs []store.RawSection) []store.RawSection {
				return slices.DeleteFunc(secs, func(s store.RawSection) bool { return s.Tag == store.TagDims })
			})
		}, "shard 0 of generation 3 has no 32-byte dimension section"},
		{"ranges-short", func(t *testing.T, dir string, man *Manifest) {
			man.Users++
			if err := WriteManifest(ManifestPath(dir, 3), man); err != nil {
				t.Fatal(err)
			}
		}, "ranges cover 30 users of 31"},
		{"no-state", func(t *testing.T, dir string, man *Manifest) {
			man.State = nil
			if err := WriteManifest(ManifestPath(dir, 3), man); err != nil {
				t.Fatal(err)
			}
		}, "generation 3's manifest names no state file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			man, err := Split(src, dir, 3, SplitOptions{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, dir, man)
			err = Join(dir, 3, filepath.Join(t.TempDir(), "joined.v2.snap"))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Join = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestParentLayoutGroupStillReads: groups written while the global file
// still carried the full DIM (every non-user section of the source) join
// byte-identically and open to the same models as today's layout.
func TestParentLayoutGroupStillReads(t *testing.T) {
	m := testModel(40, 6, 4, 60, 29)
	src := filepath.Join(t.TempDir(), "full.v2.snap")
	if err := store.SaveV2(src, m); err != nil {
		t.Fatal(err)
	}
	dir, oldDir := t.TempDir(), t.TempDir()
	man, err := Split(src, dir, 5, SplitOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Split(src, oldDir, 5, SplitOptions{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	rf, err := store.OpenRawFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var oldGlobal []store.RawSection
	for _, s := range rf.Sections() {
		if !userTags[s.Tag] {
			oldGlobal = append(oldGlobal, s)
		}
	}
	err = store.WriteRawFile(GlobalPath(oldDir, 5), oldGlobal)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	oldMan := *man
	if oldMan.Global, err = fileEntry(GlobalPath(oldDir, 5)); err != nil {
		t.Fatal(err)
	}
	if oldMan.Global.SameContent(man.Global) || len(oldMan.Global.Sections) != len(man.Global.Sections)+1 {
		t.Fatalf("the parent-layout global file should carry one section more: %+v", oldMan.Global)
	}
	if err := WriteManifest(ManifestPath(oldDir, 5), &oldMan); err != nil {
		t.Fatal(err)
	}

	joined := filepath.Join(t.TempDir(), "joined.v2.snap")
	if err := Join(oldDir, 5, joined); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(joined); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("join of a parent-layout group is not byte-identical (%v)", err)
	}
	for k := 0; k < man.Shards; k++ {
		g, err := OpenGroup(dir, man, k)
		if err != nil {
			t.Fatal(err)
		}
		old, err := OpenGroup(oldDir, &oldMan, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Model, old.Model) || g.Info != old.Info {
			t.Fatalf("shard %d opens to a different model from the parent layout", k)
		}
		g.Close()
		old.Close()
	}
}

func TestScanManifests(t *testing.T) {
	dir := t.TempDir()
	m := testModel(12, 4, 3, 40, 3)
	src := filepath.Join(t.TempDir(), "full.v2.snap")
	if err := store.SaveV2(src, m); err != nil {
		t.Fatal(err)
	}
	for _, gen := range []uint64{5, 2, 9} {
		if _, err := Split(src, dir, gen, SplitOptions{Shards: 2}); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := ScanManifests(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 || gens[0] != 2 || gens[1] != 5 || gens[2] != 9 {
		t.Fatalf("ScanManifests = %v, want [2 5 9]", gens)
	}
}

// wholeGroupHeap is the least heap OpenGroup allocates, over five opens,
// for a PublishWhole group of 100 users and docs documents; ok is false
// where the file is not a kernel mapping (the fallback reads it onto the
// heap).
func wholeGroupHeap(t *testing.T, docs int) (least uint64, ok bool) {
	t.Helper()
	dir := t.TempDir()
	m := testModel(100, 5, 3, 40, 23)
	m.DocCommunity = make([]int32, docs)
	m.DocTopic = make([]int32, docs)
	m.DocBucket = make([]int, docs)
	if err := store.SaveV2(store.GenPath(dir, 1), m); err != nil {
		t.Fatal(err)
	}
	man, err := PublishWhole(dir, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := OpenGroup(dir, man, 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		ok = g.Mapped
		if g.Model.DocCommunity != nil || g.Model.DocTopic != nil || g.Model.DocBucket != nil {
			t.Fatal("the one-shard group carries document arrays")
		}
		g.Close()
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	return least, ok
}

// TestWholeGroupHeapIndependentOfDocuments: a full replica's group over a
// one-shard generation maps the full file, document arrays included, but
// assembles no document array, so opening it costs the same heap at 300
// and at 30 000 documents (240 KB of DOCB apart).
func TestWholeGroupHeapIndependentOfDocuments(t *testing.T) {
	small, ok := wholeGroupHeap(t, 300)
	if !ok {
		t.Skip("no kernel mapping on this platform")
	}
	large, _ := wholeGroupHeap(t, 30000)
	t.Logf("OpenGroup heap: %d B at 300 documents, %d B at 30 000", small, large)
	if large > small+1024 {
		t.Fatalf("OpenGroup allocates %d B at 30 000 documents, %d B at 300: it grows with the document arrays", large, small)
	}
}

// TestPublishWhole: an unsharded generation's one-shard manifest names
// the full file as global file and only shard, so Join reproduces it,
// OpenGroup maps it once into the model store.Open reads less the document
// arrays, and Prune takes the manifest and the file.
func TestPublishWhole(t *testing.T) {
	dir := t.TempDir()
	m := testModel(30, 5, 3, 40, 19)
	full := store.GenPath(dir, 4)
	if err := store.SaveV2(full, m); err != nil {
		t.Fatal(err)
	}
	man, err := PublishWhole(dir, 4, m)
	if err != nil {
		t.Fatal(err)
	}
	if read, err := ReadManifest(ManifestPath(dir, 4)); err != nil || !reflect.DeepEqual(read, man) {
		t.Fatalf("manifest on disk %+v (%v), published %+v", read, err, man)
	}
	if man.Shards != 1 || man.Global.Name != filepath.Base(full) || !reflect.DeepEqual(man.Ranges[0].File, man.Global) ||
		man.State == nil || !reflect.DeepEqual(*man.State, man.Global) ||
		man.Ranges[0].UserHi != 30 || len(man.SectionOrder) != len(man.Global.Sections) {
		t.Fatalf("one-shard manifest %+v", man)
	}

	joined := filepath.Join(t.TempDir(), "joined.v2.snap")
	if err := Join(dir, 4, joined); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(joined); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("join of a one-shard generation is not its full file (%v)", err)
	}

	g, err := OpenGroup(dir, man, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	mm, err := store.Open(full)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	served := *mm.Model
	served.DocCommunity, served.DocTopic, served.DocBucket = nil, nil, nil
	if !reflect.DeepEqual(g.Model, &served) {
		t.Fatal("the one-shard group opens to a different model from store.Open's without document arrays")
	}
	if g.MappedBytes != int64(len(want)) || len(g.files) != 1 {
		t.Fatalf("the group maps %d bytes over %d files, want the %d-byte file once", g.MappedBytes, len(g.files), len(want))
	}
	if want := (Info{Index: 0, Count: 1, UserLo: 0, UserHi: 30, TotalUsers: 30}); g.Info != want {
		t.Fatalf("group info %+v, want %+v", g.Info, want)
	}

	if err := VerifyAgainstManifest(full, man.Global); err != nil {
		t.Fatal(err)
	}
	Prune(dir, 4)
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("prune left %v", entries)
	}
}

// TestManifestRejectsForeignNames: entry names come from outside (a
// downloaded manifest), and readers join them to a directory, so
// DecodeManifest accepts only the generation's own file for each role:
// its global file, state file or shard i's, or — with one shard — its full
// file. A manifest without a state entry is still accepted.
func TestManifestRejectsForeignNames(t *testing.T) {
	m := testModel(20, 4, 3, 30, 7)
	src := filepath.Join(t.TempDir(), "full.v2.snap")
	if err := store.SaveV2(src, m); err != nil {
		t.Fatal(err)
	}
	split, err := Split(src, t.TempDir(), 3, SplitOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	wholeDir := t.TempDir()
	if err := store.SaveV2(store.GenPath(wholeDir, 3), m); err != nil {
		t.Fatal(err)
	}
	whole, err := PublishWhole(wholeDir, 3, m)
	if err != nil {
		t.Fatal(err)
	}
	fullName := filepath.Base(store.GenPath("", 3))
	cases := []struct {
		name string
		base *Manifest
		edit func(man *Manifest)
		ok   bool
	}{
		{"split", split, func(man *Manifest) {}, true},
		{"whole", whole, func(man *Manifest) {}, true},
		{"whole-group-names", whole, func(man *Manifest) {
			man.Global.Name, man.Ranges[0].File.Name = fmt.Sprintf(globalFormat, 3), fmt.Sprintf(shardFormat, 3, 0)
		}, true},
		{"global-escapes", split, func(man *Manifest) { man.Global.Name = "../x" }, false},
		{"shard-escapes", split, func(man *Manifest) { man.Ranges[1].File.Name = "../" + man.Ranges[1].File.Name }, false},
		{"whole-escapes", whole, func(man *Manifest) { man.Ranges[0].File.Name = "../" + fullName }, false},
		{"other-generation-global", split, func(man *Manifest) { man.Global.Name = fmt.Sprintf(globalFormat, 2) }, false},
		{"other-generation-full", whole, func(man *Manifest) { man.Global.Name = filepath.Base(store.GenPath("", 2)) }, false},
		{"shard-index-mismatch", split, func(man *Manifest) { man.Ranges[1].File.Name = fmt.Sprintf(shardFormat, 3, 0) }, false},
		{"full-global-in-group", split, func(man *Manifest) { man.Global.Name = fullName }, false},
		{"full-shard-in-group", split, func(man *Manifest) { man.Ranges[0].File.Name = fullName }, false},
		{"empty", split, func(man *Manifest) { man.Global.Name = "" }, false},
		{"no-state", split, func(man *Manifest) { man.State = nil }, true},
		{"whole-group-state", whole, func(man *Manifest) { man.State = &FileEntry{Name: fmt.Sprintf(stateFormat, 3)} }, true},
		{"state-escapes", split, func(man *Manifest) { man.State = &FileEntry{Name: "../" + fmt.Sprintf(stateFormat, 3)} }, false},
		{"other-generation-state", split, func(man *Manifest) { man.State = &FileEntry{Name: fmt.Sprintf(stateFormat, 2)} }, false},
		{"shard-as-state", split, func(man *Manifest) { man.State = &FileEntry{Name: fmt.Sprintf(shardFormat, 3, 0)} }, false},
		{"full-state-in-group", split, func(man *Manifest) { man.State = &FileEntry{Name: fullName} }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			man := *tc.base
			man.Ranges = slices.Clone(tc.base.Ranges)
			tc.edit(&man)
			var doc bytes.Buffer
			if err := EncodeManifest(&doc, &man); err != nil {
				t.Fatal(err)
			}
			_, err := DecodeManifest(&doc)
			if tc.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tc.ok && (err == nil || !strings.Contains(err.Error(), "names")) {
				t.Fatalf("DecodeManifest = %v, want the entry name refused", err)
			}
		})
	}
}

// FuzzSplitJoin drives split→join byte-identity over fuzz-chosen shapes.
func FuzzSplitJoin(f *testing.F) {
	f.Add(uint16(10), uint8(2), uint64(1))
	f.Add(uint16(1), uint8(4), uint64(2))
	f.Add(uint16(33), uint8(7), uint64(3))
	f.Fuzz(func(t *testing.T, users uint16, shards uint8, seed uint64) {
		u := int(users%200) + 1
		s := int(shards%8) + 1
		m := testModel(u, 4, 3, 30, seed)
		src := filepath.Join(t.TempDir(), "full.v2.snap")
		if err := store.SaveV2(src, m); err != nil {
			t.Fatal(err)
		}
		splitJoinIdentical(t, src, s)
	})
}

// FuzzReadManifest feeds ReadManifest arbitrary files — as they are, and
// sealed under a correct CRC header so the JSON and the range validation
// behind it are reached. It must never panic, and a manifest it accepts
// keeps the promises every consumer leans on: the ranges tile [0,Users)
// in index order, Owner agrees with them, every entry names a file of the
// manifest's own generation, and the manifest survives a write/read round
// trip unchanged.
func FuzzReadManifest(f *testing.F) {
	valid := &Manifest{
		Version: 1, Generation: 7, Shards: 2, Users: 10,
		SectionOrder: []string{"CONF", "PI"},
		Global:       FileEntry{Name: "gen-00000007.global.v2.snap", Size: 64, Sections: []store.SectionSum{{Tag: "CONF", Size: 12, CRC: 5}}},
		Ranges: []Range{
			{Index: 0, UserLo: 0, UserHi: 4, File: FileEntry{Name: "gen-00000007.shard-000.v2.snap", Size: 80}},
			{Index: 1, UserLo: 4, UserHi: 10, File: FileEntry{Name: "gen-00000007.shard-001.v2.snap", Size: 96}},
		},
	}
	seal := func(man *Manifest) []byte {
		var doc bytes.Buffer
		if err := EncodeManifest(&doc, man); err != nil {
			f.Fatal(err)
		}
		return doc.Bytes()
	}
	doc := seal(valid)
	payload := doc[bytes.IndexByte(doc, '\n')+1:]
	f.Add(doc, false)
	f.Add(doc[:len(doc)/2], false)
	f.Add(payload, true)
	f.Add([]byte(`{"shards":1,"users":3,"docs":0,"ranges":[{"index":0,"user_lo":0,"user_hi":3}]}`), true)
	f.Add([]byte(`{"shards":2,"users":3,"ranges":[{"index":0,"user_hi":3},{"index":1,"user_lo":2,"user_hi":3}]}`), true)
	f.Add([]byte(`{"shards":-1,"ranges":null}`), true)
	f.Add([]byte(`{"shards":1,"users":9223372036854775807,"ranges":[{"user_hi":9223372036854775807}]}`), true)
	f.Add([]byte(manifestMagic+" zzzzzzzz\n{}"), false)
	f.Add([]byte{}, true)
	// A state entry: the generation's own state file is accepted; a path,
	// another generation's state file or a shard file's name is not.
	for _, name := range []string{"gen-00000007.state.v2.snap", "../x", "gen-00000006.state.v2.snap", "gen-00000007.shard-000.v2.snap"} {
		man := *valid
		man.State = &FileEntry{Name: name, Size: 72, Sections: []store.SectionSum{{Tag: store.TagDocC, Size: 64, CRC: 9}}}
		f.Add(seal(&man), false)
	}

	path := filepath.Join(f.TempDir(), "shards.json") // one per fuzz worker process
	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal {
			data = append([]byte(fmt.Sprintf("%s %08x\n", manifestMagic, crc32.ChecksumIEEE(data))), data...)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		man, err := ReadManifest(path)
		if err != nil {
			return // refused: fine, as long as it did not panic
		}
		if man.Shards < 1 || len(man.Ranges) != man.Shards {
			t.Fatalf("accepted %d shards with %d ranges", man.Shards, len(man.Ranges))
		}
		users := 0
		for i, r := range man.Ranges {
			if r.Index != i || r.UserLo != users || r.UserHi < r.UserLo {
				t.Fatalf("accepted range %d = %+v after %d users", i, r, users)
			}
			users = r.UserHi
			if r.UserHi > r.UserLo && (man.Owner(r.UserLo) != i || man.Owner(r.UserHi-1) != i) {
				t.Fatalf("range %d [%d,%d) is owned by %d / %d", i, r.UserLo, r.UserHi, man.Owner(r.UserLo), man.Owner(r.UserHi-1))
			}
		}
		if users != man.Users || man.Owner(-1) != -1 || man.Owner(man.Users) != -1 {
			t.Fatalf("accepted ranges covering %d users of %d", users, man.Users)
		}
		names := []string{man.Global.Name, man.Ranges[man.Shards-1].File.Name}
		if man.State != nil {
			names = append(names, man.State.Name)
			if man.Shards > 1 && man.State.Name != fmt.Sprintf(stateFormat, man.Generation) {
				t.Fatalf("accepted state entry %q in a %d-shard manifest of generation %d", man.State.Name, man.Shards, man.Generation)
			}
		}
		for _, name := range names {
			if !strings.HasPrefix(name, fmt.Sprintf("gen-%08d.", man.Generation)) || filepath.Base(name) != name {
				t.Fatalf("accepted entry name %q in a manifest of generation %d", name, man.Generation)
			}
		}
		if err := WriteManifest(path, man); err != nil {
			t.Fatal(err)
		}
		again, err := ReadManifest(path)
		if err != nil || !reflect.DeepEqual(again, man) {
			t.Fatalf("round trip: %v\nread  %+v\nwrote %+v", err, again, man)
		}
	})
}
