package shard

// Publisher: the streaming write path's manifest writer. Every publish of
// the stream updater commits its generation through it: at one shard the
// manifest names the full snapshot the updater wrote (PublishWhole); at
// more, the generation is also emitted as a sharded group, and the
// publisher keeps that work O(changed) at the file level:
//
//   - boundaries are planned once and then pinned, with only the LAST
//     shard's upper bound growing as the stream appends users — so shards
//     0..N−2 keep byte-stable ranges across generations and routing stays
//     valid through a rollout;
//   - the global file holds only the community profiles (no DIM, so no
//     user count), which fold-in never moves: every publish that is not
//     Full HARD-LINKS the previous generation's global file, appended
//     users or not;
//   - a shard whose range holds no re-folded user is hard-linked to the
//     previous generation's file — zero encode, zero extra disk — whatever
//     happened to the documents;
//   - the state file (the document arrays) is hard-linked while those
//     arrays are the previous model's very own (a friends-only publish);
//   - dirty shards, the state file of a publish that moved documents and
//     the global file of a Full one are encoded from the model in memory
//     (store.SaveV2Subset). Whole-file links are the only reuse between
//     generations: a file is either the previous one or freshly encoded,
//     so Π rows the updater patched in place always reach a written file.
//
// The group path is the one writer of group files: Split writes through
// it too, so while the user count is the one the boundaries were planned
// for, a published group and Split of the full snapshot of the same model
// are the same files. Join on a published group reproduces the full file
// bit-for-bit whatever the count.

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
	shardTagsList  = []string{store.TagConfig, store.TagDims, store.TagPi}
	stateTagsList  = []string{store.TagDocC, store.TagDocZ, store.TagDocB}
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
	// Full marks a from-scratch publish (the first publish of a process, a
	// delta-Gibbs publish, a Split): nothing may be reused.
	Full bool
	// ChangedUsers lists the user rows (global ids) whose Π bytes may
	// differ from the previous published model; appended users are
	// implied by the model's larger NumUsers and need not be listed.
	ChangedUsers []int32
}

// Publisher commits the generations of a stream of published models. Not
// safe for concurrent use; the stream updater calls it under its publish
// lock.
type Publisher struct {
	dir    string
	shards int

	ranges  []Range // pinned boundaries (File entries unused)
	prevMan *Manifest

	// Identity of the previous published model's arrays, for state-file
	// and boundary-stability reasoning.
	prevUsers int
	prevDocC  []int32
	prevDocZ  []int32
	prevDocB  []int

	// LinkedFiles / WrittenFiles count group files hard-linked vs
	// re-encoded across the publisher's lifetime (observability).
	LinkedFiles, WrittenFiles uint64
	// Last describes the most recent successful Publish.
	Last PublishStats
}

// NewPublisher builds a generation publisher writing into dir; shards 1
// publishes each generation as its full snapshot file alone.
func NewPublisher(dir string, shards int) (*Publisher, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("shard: shard count %d must be positive", shards)
	}
	return &Publisher{dir: dir, shards: shards}, nil
}

// sameArray reports slice identity (same backing array, same length) —
// the state-file reuse precondition.
func sameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Publish emits generation gen of model m as a shard group and returns
// its manifest. At one shard the group is the full snapshot the caller
// already wrote from m at store.GenPath(dir, gen): Publish commits
// PublishWhole's manifest over it, and Last counts only that manifest.
func (p *Publisher) Publish(gen uint64, m *core.Model, d Delta) (*Manifest, error) {
	if p.shards == 1 {
		man, err := PublishWhole(p.dir, gen, m)
		if err != nil {
			return nil, err
		}
		fi, err := os.Stat(ManifestPath(p.dir, gen))
		if err != nil {
			return nil, err
		}
		p.Last = PublishStats{BytesWritten: fi.Size()}
		return man, nil
	}
	return p.group(gen, m, d)
}

// group writes generation gen of m as a shard group — global file, state
// file, one file per range, then the manifest as the commit point —
// linking what d says did not move, whatever the shard count: Split writes
// a one-shard group through it too.
func (p *Publisher) group(gen uint64, m *core.Model, d Delta) (*Manifest, error) {
	users := m.NumUsers
	C := m.Cfg.NumCommunities

	full := d.Full
	if p.ranges == nil || users < p.prevUsers || users < p.ranges[p.shards-1].UserLo {
		// First publish, or the model shrank out from under the pinned
		// boundaries (an external reset): replan and rebuild everything.
		ranges, err := PlanRanges(users, p.shards, C)
		if err != nil {
			return nil, err
		}
		p.ranges = ranges
		full = true
	} else {
		// Pinned boundaries: only the last shard absorbs appended users,
		// so every other shard's byte range is stable.
		p.ranges[p.shards-1].UserHi = users
	}

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
		SectionOrder: canonicalOrder(m),
		Ranges:       make([]Range, p.shards),
	}
	// link is the previous generation's manifest when its files may be
	// re-linked at all: nothing survives a full rebuild.
	var link *Manifest
	if !full {
		link = p.prevMan
	}

	var st PublishStats
	// Global file. Outside full rebuilds the global blocks alias the
	// previous model's arrays and CFG is value-stable, so the previous file
	// is re-linked.
	var prev *FileEntry
	if link != nil {
		prev = &link.Global
	}
	var err error
	if man.Global, err = commit(&st, GlobalPath(p.dir, gen), prev, m, globalTagsList); err != nil {
		return nil, fmt.Errorf("shard: writing global file: %w", err)
	}

	// State file: reusable only when the document arrays are the previous
	// model's very own backing arrays (the friends-only publish regime).
	prev = nil
	if link != nil && sameArray(m.DocCommunity, p.prevDocC) && sameArray(m.DocTopic, p.prevDocZ) && sameArray(m.DocBucket, p.prevDocB) {
		prev = link.State
	}
	state, err := commit(&st, StatePath(p.dir, gen), prev, m, stateTagsList)
	if err != nil {
		return nil, fmt.Errorf("shard: writing state file: %w", err)
	}
	man.State = &state

	for i, r := range p.ranges {
		prev = nil
		if link != nil && !changed[i] && i < len(link.Ranges) && link.Ranges[i].UserLo == r.UserLo && link.Ranges[i].UserHi == r.UserHi {
			prev = &link.Ranges[i].File
		}
		sub := &core.Model{
			Cfg:        m.Cfg,
			NumUsers:   r.UserHi - r.UserLo,
			NumWords:   m.NumWords,
			NumBuckets: m.NumBuckets,
			NumAttrs:   m.NumAttrs,
			Pi:         sparse.NewDenseView(r.UserHi-r.UserLo, C, m.Pi.Data[r.UserLo*C:r.UserHi*C]),
		}
		ent, err := commit(&st, ShardPath(p.dir, gen, i), prev, sub, shardTagsList)
		if err != nil {
			return nil, fmt.Errorf("shard: writing shard %d: %w", i, err)
		}
		man.Ranges[i] = Range{Index: i, UserLo: r.UserLo, UserHi: r.UserHi, File: ent}
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
	p.prevMan = man
	p.prevUsers = users
	p.prevDocC = m.DocCommunity
	p.prevDocZ = m.DocTopic
	p.prevDocB = m.DocBucket
	return man, nil
}

// commit puts one group file at path: a hard link of the previous
// generation's file prev names (in path's directory), reusing its manifest
// entry, when prev is non-nil and the link succeeds; otherwise the tags of
// m encoded through store.SaveV2Subset. It counts the file in st and
// returns the file's manifest entry.
func commit(st *PublishStats, path string, prev *FileEntry, m *core.Model, tags []string) (FileEntry, error) {
	if prev != nil && linkOrCopy(filepath.Join(filepath.Dir(path), prev.Name), path) == nil {
		ent := *prev
		ent.Name = filepath.Base(path)
		st.FilesLinked++
		return ent, nil
	}
	if err := store.SaveV2Subset(path, m, tags); err != nil {
		return FileEntry{}, err
	}
	ent, err := fileEntry(path)
	if err != nil {
		return FileEntry{}, err
	}
	st.FilesWritten++
	st.BytesWritten += ent.Size
	return ent, nil
}

// PublishWhole commits generation gen's full snapshot, already written
// from m at store.GenPath(dir, gen), as a one-shard group: a manifest
// whose global entry, state entry and only range all name that file, in
// its own section order. Replicas fetch it exactly as they fetch shard 0
// of a sharded generation, and Join reproduces the file.
func PublishWhole(dir string, gen uint64, m *core.Model) (*Manifest, error) {
	ent, err := fileEntry(store.GenPath(dir, gen))
	if err != nil {
		return nil, err
	}
	order := make([]string, len(ent.Sections))
	for i, sec := range ent.Sections {
		order[i] = sec.Tag
	}
	man := &Manifest{
		Version:      1,
		Generation:   gen,
		Shards:       1,
		Users:        m.NumUsers,
		SectionOrder: order,
		Global:       ent,
		State:        &ent,
		Ranges:       []Range{{Index: 0, UserHi: m.NumUsers, File: ent}},
	}
	if err := WriteManifest(ManifestPath(dir, gen), man); err != nil {
		return nil, err
	}
	return man, nil
}

// Prune removes the groups of generations at or below cut from dir, in
// commit order: each manifest goes before the files it names (for a
// one-shard generation, the full snapshot), so no reader finds a manifest
// whose files are gone. A manifest that no longer parses takes its
// generation's group file names with it.
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
			if man.State != nil {
				paths = append(paths, filepath.Join(dir, man.State.Name))
			}
			for _, r := range man.Ranges {
				paths = append(paths, filepath.Join(dir, r.File.Name))
			}
		} else {
			paths, _ = filepath.Glob(filepath.Join(dir, fmt.Sprintf("gen-%08d.shard-*.v2.snap", gen)))
			paths = append(paths, GlobalPath(dir, gen), StatePath(dir, gen))
		}
		for _, path := range paths {
			os.Remove(path)
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
