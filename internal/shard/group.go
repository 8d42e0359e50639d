package shard

// OpenGroup: the serving-side open path. A replica that owns shard k of
// a sharded generation maps exactly two files — the global sections and
// its own shard (one full file for a one-shard generation) — and
// assembles a partial model over them: local Π rows, full
// Θ/Φ/η/ν/POPF/XI, and no document arrays, which no query reads — not
// even when the one file is a full snapshot that holds them.
// Membership and fold-in work for owned users; rank and diffusion scoring
// are exact because they only read the global sections (plus membership
// rows the caller supplies).

import (
	"fmt"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/store"
)

// Group is an opened shard group: a servable partial model plus the
// mappings backing it. The model must not be used after Close.
type Group struct {
	Model *core.Model
	Info  Info

	// MappedBytes is the total mapping size (global + shard file, or the
	// one full file of a one-shard generation) — the per-replica memory
	// win the format exists for.
	MappedBytes int64
	// Mapped reports whether every file is a real kernel mapping (false
	// on the aligned-copy fallback platforms).
	Mapped bool

	files []*store.RawFile
}

// OpenGroup maps generation files for shard index of the manifest under
// dir, resolved from the manifest's entry names, and assembles the
// partial model. A file named twice (the full file of a one-shard
// generation) is mapped once. The caller owns the group and must Close
// it when the last query drains.
func OpenGroup(dir string, man *Manifest, index int) (*Group, error) {
	if index < 0 || index >= man.Shards {
		return nil, fmt.Errorf("shard: index %d out of range (manifest has %d shards)", index, man.Shards)
	}
	r := man.Ranges[index]
	global, err := store.OpenRawFile(filepath.Join(dir, man.Global.Name))
	if err != nil {
		return nil, err
	}
	g := &Group{
		Info: Info{
			Index:      index,
			Count:      man.Shards,
			UserLo:     r.UserLo,
			UserHi:     r.UserHi,
			TotalUsers: man.Users,
		},
		files: []*store.RawFile{global},
	}
	sf := global
	if r.File.Name != man.Global.Name {
		if sf, err = store.OpenRawFile(filepath.Join(dir, r.File.Name)); err != nil {
			global.Close()
			return nil, err
		}
		g.files = append(g.files, sf)
	}
	g.Mapped = true
	for _, f := range g.files {
		g.MappedBytes += f.SizeBytes()
		g.Mapped = g.Mapped && f.Mapped()
	}
	// Merge: CFG, the patched DIM and Π from the shard file, everything
	// else from the global file but the document arrays. A shard file
	// written while it still carried a document-array window keeps that
	// window to itself, and the full file of a one-shard generation its
	// arrays.
	var secs []store.RawSection
	for _, s := range sf.Sections() {
		if slices.Contains(shardTagsList, s.Tag) {
			secs = append(secs, s)
		}
	}
	for _, s := range global.Sections() {
		if !slices.Contains(shardTagsList, s.Tag) && !slices.Contains(stateTagsList, s.Tag) {
			secs = append(secs, s)
		}
	}
	m, err := store.AssembleRawModel(secs)
	if err != nil {
		g.Close()
		return nil, fmt.Errorf("shard: assembling shard %d of generation %d: %w", index, man.Generation, err)
	}
	if m.NumUsers != r.UserHi-r.UserLo {
		g.Close()
		return nil, fmt.Errorf("shard: shard %d holds %d users, manifest says %d", index, m.NumUsers, r.UserHi-r.UserLo)
	}
	g.Model = m
	return g, nil
}

// Close releases every mapping. Idempotent.
func (g *Group) Close() error {
	var err error
	for _, f := range g.files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
