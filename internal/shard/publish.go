package shard

// Publisher: the streaming write path's sharded emitter. Each publish of
// the stream updater can additionally emit a sharded generation; the
// publisher keeps the work O(changed) at the file level:
//
//   - boundaries are planned once and then pinned, with only the LAST
//     shard's user/doc upper bound growing as the stream appends users
//     and documents — so shards 0..N−2 keep byte-stable ranges across
//     generations and routing stays valid through a rollout;
//   - the global file holds only the community profiles (no DIM, so no
//     user count), which fold-in never moves: every publish that is not
//     Full HARD-LINKS the previous generation's global file, appended
//     users or not;
//   - a shard whose range holds no re-folded user (and whose doc window
//     is unchanged) is hard-linked to the previous generation's file —
//     zero encode, zero extra disk;
//   - dirty shards, and the global file of a Full publish, are written
//     through store.SaveV2SubsetReusing, so sections whose backing arrays
//     did not move (doc windows on friends-only publishes) splice
//     byte-for-byte — except the Π of a shard the delta names, which is
//     always encoded: the updater may have patched those rows inside the
//     array a manifest remembers.
//
// The emitted group is exactly what Split would produce from the full
// snapshot of the same model with the same pinned ranges — Join on a
// published group reproduces the full file bit-for-bit.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/store"
)

var (
	shardTagsList  = []string{store.TagConfig, store.TagDims, store.TagPi, store.TagDocC, store.TagDocZ, store.TagDocB}
	globalTagsList = []string{store.TagConfig, store.TagTheta, store.TagPhi, store.TagEta, store.TagNu, store.TagPop, store.TagXi}
)

// PublishStats is what one Publish put on disk. Links cost no bytes.
type PublishStats struct {
	FilesWritten, FilesLinked int
	// BytesWritten sums the sizes of the files written, manifest included.
	BytesWritten int64
}

// Delta tells Publish what moved since the previous published model.
type Delta struct {
	// Full marks a from-scratch publish (first publish, delta-Gibbs,
	// operator-forced rebuild): nothing may be reused.
	Full bool
	// ChangedUsers lists the user rows (global ids) whose Π bytes may
	// differ from the previous published model; appended users are
	// implied by the model's larger NumUsers and need not be listed.
	ChangedUsers []int32
}

// Publisher emits sharded generations for a stream of published models.
// Not safe for concurrent use; the stream updater calls it under its
// publish lock.
type Publisher struct {
	dir    string
	shards int

	ranges  []Range // pinned boundaries (File entries unused)
	prevGen uint64
	prevMan *Manifest

	// Identity of the previous published model's arrays, for doc-window
	// and boundary-stability reasoning.
	prevUsers int
	prevDocC  []int32
	prevDocZ  []int32
	prevDocB  []int

	// Per-file section manifests for SaveV2SubsetReusing.
	shardMans []*store.SectionManifest
	globalMan *store.SectionManifest

	// LinkedFiles / WrittenFiles count group files hard-linked vs
	// re-encoded across the publisher's lifetime (observability).
	LinkedFiles, WrittenFiles uint64
	// Last describes the most recent successful Publish.
	Last PublishStats
}

// NewPublisher builds a sharded-generation emitter writing into dir.
func NewPublisher(dir string, shards int) (*Publisher, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("shard: shard count %d must be positive", shards)
	}
	return &Publisher{dir: dir, shards: shards, shardMans: make([]*store.SectionManifest, shards)}, nil
}

// sameInt32s / sameInts report slice identity (same backing array, same
// length) — the doc-window reuse precondition.
func sameInt32s(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
func sameInts(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Publish emits generation gen of model m as a shard group and returns
// its manifest.
func (p *Publisher) Publish(gen uint64, m *core.Model, d Delta) (*Manifest, error) {
	users, docs := m.NumUsers, len(m.DocCommunity)
	C := m.Cfg.NumCommunities

	full := d.Full
	if p.ranges == nil || users < p.prevUsers || users < p.ranges[p.shards-1].UserLo || docs < p.ranges[p.shards-1].DocLo {
		// First publish, or the model shrank out from under the pinned
		// boundaries (an external reset): replan and rebuild everything.
		ranges, err := PlanRanges(users, docs, p.shards, PlanOptions{Cols: C})
		if err != nil {
			return nil, err
		}
		p.ranges = ranges
		full = true
	} else {
		// Pinned boundaries: only the last shard absorbs appended users
		// and documents, so every other shard's byte range is stable.
		p.ranges[p.shards-1].UserHi = users
		p.ranges[p.shards-1].DocHi = docs
	}

	// Doc windows are reusable only when the doc arrays are the previous
	// model's very own backing arrays (the friends-only publish regime).
	docsSame := !full &&
		sameInt32s(m.DocCommunity, p.prevDocC) &&
		sameInt32s(m.DocTopic, p.prevDocZ) &&
		sameInts(m.DocBucket, p.prevDocB)

	changed := make(map[int]bool, p.shards) // shard index -> Π rows moved
	if !full {
		for _, u := range d.ChangedUsers {
			for i, r := range p.ranges {
				if int(u) >= r.UserLo && int(u) < r.UserHi {
					changed[i] = true
					break
				}
			}
		}
		if users > p.prevUsers {
			changed[p.shards-1] = true // appended rows land in the last range
		}
	}

	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	man := &Manifest{
		Version:      1,
		Generation:   gen,
		Shards:       p.shards,
		Users:        users,
		Docs:         docs,
		SectionOrder: canonicalOrder(m),
		Ranges:       make([]Range, p.shards),
	}

	var st PublishStats
	// Global file. Outside full rebuilds the global blocks alias the
	// previous model's arrays and CFG is value-stable, so the previous file
	// is re-linked.
	globalPath := GlobalPath(p.dir, gen)
	if !full && p.prevMan != nil && linkOrCopy(GlobalPath(p.dir, p.prevGen), globalPath) == nil {
		man.Global = p.prevMan.Global
		man.Global.Name = fmt.Sprintf(globalFormat, gen)
		st.FilesLinked++
	} else {
		gm, err := store.SaveV2SubsetReusing(globalPath, m, globalTagsList, p.globalMan)
		if err != nil {
			return nil, fmt.Errorf("shard: writing global file: %w", err)
		}
		p.globalMan = gm
		if man.Global, err = fileEntry(globalPath); err != nil {
			return nil, err
		}
		st.FilesWritten++
		st.BytesWritten += man.Global.Size
	}

	for i := range p.ranges {
		r := p.ranges[i]
		path := ShardPath(p.dir, gen, i)
		clean := !full && !changed[i] && docsSame && p.prevMan != nil && i < len(p.prevMan.Ranges) &&
			p.prevMan.Ranges[i].UserLo == r.UserLo && p.prevMan.Ranges[i].UserHi == r.UserHi &&
			p.prevMan.Ranges[i].DocLo == r.DocLo && p.prevMan.Ranges[i].DocHi == r.DocHi
		if clean && linkOrCopy(ShardPath(p.dir, p.prevGen, i), path) == nil {
			ent := p.prevMan.Ranges[i].File
			ent.Name = fmt.Sprintf(shardFormat, gen, i)
			man.Ranges[i] = Range{Index: i, UserLo: r.UserLo, UserHi: r.UserHi, DocLo: r.DocLo, DocHi: r.DocHi, File: ent}
			st.FilesLinked++
			continue
		}
		sub := &core.Model{
			Cfg:          m.Cfg,
			NumUsers:     r.UserHi - r.UserLo,
			NumWords:     m.NumWords,
			NumBuckets:   m.NumBuckets,
			NumAttrs:     m.NumAttrs,
			Pi:           sparse.NewDenseView(r.UserHi-r.UserLo, C, m.Pi.Data[r.UserLo*C:r.UserHi*C]),
			DocCommunity: m.DocCommunity[r.DocLo:r.DocHi],
			DocTopic:     m.DocTopic[r.DocLo:r.DocHi],
			DocBucket:    m.DocBucket[r.DocLo:r.DocHi],
		}
		if changed[i] {
			// The delta says rows of this range moved. The Π on record may
			// be several generations old (linking a clean shard does not
			// refresh it) and the caller may have patched that very array
			// in place since, so its identity proves nothing: encode it.
			p.shardMans[i].Forget(store.TagPi)
		}
		sman, err := store.SaveV2SubsetReusing(path, sub, shardTagsList, p.shardMans[i])
		if err != nil {
			return nil, fmt.Errorf("shard: writing shard %d: %w", i, err)
		}
		p.shardMans[i] = sman
		ent, err := fileEntry(path)
		if err != nil {
			return nil, err
		}
		man.Ranges[i] = Range{Index: i, UserLo: r.UserLo, UserHi: r.UserHi, DocLo: r.DocLo, DocHi: r.DocHi, File: ent}
		st.FilesWritten++
		st.BytesWritten += ent.Size
	}

	manPath := ManifestPath(p.dir, gen)
	if err := WriteManifest(manPath, man); err != nil {
		return nil, err
	}
	fi, err := os.Stat(manPath)
	if err != nil {
		return nil, err
	}
	st.BytesWritten += fi.Size()
	p.Last = st
	p.LinkedFiles += uint64(st.FilesLinked)
	p.WrittenFiles += uint64(st.FilesWritten)
	p.prevGen = gen
	p.prevMan = man
	p.prevUsers = users
	p.prevDocC = m.DocCommunity
	p.prevDocZ = m.DocTopic
	p.prevDocB = m.DocBucket
	return man, nil
}

// PublishWhole commits generation gen's full snapshot, already written
// from m at store.GenPath(dir, gen), as a one-shard group: a manifest
// whose global entry and only range both name that file, in its own
// section order. Replicas fetch it exactly as they fetch shard 0 of a
// sharded generation, and Join reproduces the file.
func PublishWhole(dir string, gen uint64, m *core.Model) (*Manifest, error) {
	ent, err := fileEntry(store.GenPath(dir, gen))
	if err != nil {
		return nil, err
	}
	order := make([]string, len(ent.Sections))
	for i, sec := range ent.Sections {
		order[i] = sec.Tag
	}
	users, docs := m.NumUsers, len(m.DocCommunity)
	man := &Manifest{
		Version:      1,
		Generation:   gen,
		Shards:       1,
		Users:        users,
		Docs:         docs,
		SectionOrder: order,
		Global:       ent,
		Ranges:       []Range{{Index: 0, UserHi: users, DocHi: docs, File: ent}},
	}
	if err := WriteManifest(ManifestPath(dir, gen), man); err != nil {
		return nil, err
	}
	return man, nil
}

// Prune removes the groups of generations at or below cut from dir, in
// commit order: each manifest goes before the files it names (for a
// one-shard generation, the full snapshot), so no reader finds a manifest
// whose files are gone. Files go with their .verified receipts. A
// manifest that no longer parses takes its generation's group file names
// with it.
func Prune(dir string, cut uint64) {
	gens, err := ScanManifests(dir)
	if err != nil {
		return
	}
	for _, gen := range gens {
		if gen > cut {
			break
		}
		manPath := ManifestPath(dir, gen)
		man, err := ReadManifest(manPath)
		os.Remove(manPath)
		var paths []string
		if err == nil {
			paths = append(paths, filepath.Join(dir, man.Global.Name))
			for _, r := range man.Ranges {
				paths = append(paths, filepath.Join(dir, r.File.Name))
			}
		} else {
			paths, _ = filepath.Glob(filepath.Join(dir, fmt.Sprintf("gen-%08d.shard-*.v2.snap", gen)))
			paths = append(paths, GlobalPath(dir, gen))
		}
		for _, path := range paths {
			store.RemoveVerified(path)
		}
	}
}

// canonicalOrder is the section order SaveV2 would emit for m — what
// Join reproduces.
func canonicalOrder(m *core.Model) []string {
	order := []string{store.TagConfig, store.TagDims, store.TagPi, store.TagTheta, store.TagPhi, store.TagEta, store.TagNu}
	if m.PopFreq != nil {
		order = append(order, store.TagPop)
	}
	if m.Xi != nil {
		order = append(order, store.TagXi)
	}
	return append(order, store.TagDocC, store.TagDocZ, store.TagDocB)
}

// linkOrCopy hard-links src to dst (replacing dst), falling back to a
// byte copy on filesystems without hard links. Correct because published
// group files are immutable: writers always create fresh files and
// rename them into place, never mutate in place.
func linkOrCopy(src, dst string) error {
	os.Remove(dst)
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	return store.WriteFileAtomic(dst, func(f *os.File) error {
		_, err := io.Copy(f, in)
		return err
	})
}
