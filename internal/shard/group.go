package shard

// OpenGroup: the serving-side open path. A replica that owns shard k of
// a sharded generation maps exactly two files — the global sections and
// its own shard (one full file for a one-shard generation) —, checks
// every byte of each against the manifest over that mapping, and
// assembles a partial model over them: local Π rows, full
// Θ/Φ/η/ν/POPF/XI, and no document arrays, which no query reads — not
// even when the one file is a full snapshot that holds them.
// Membership and fold-in work for owned users; rank and diffusion scoring
// are exact because they only read the global sections (plus membership
// rows the caller supplies). OpenWhole opens a bare v2 file the same way.

import (
	"fmt"
	"io/fs"
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
// dir, resolved from the manifest's entry names, checks each against its
// entry over the mapping it then serves (see openFile), and assembles the
// partial model. A file named twice (the full file of a one-shard
// generation) is mapped and checked once. A file that cannot be opened or
// fails its check is named by an *fs.PathError in the error's chain. The
// caller owns the group and must Close it when the last query drains.
func OpenGroup(dir string, man *Manifest, index int) (*Group, error) {
	if index < 0 || index >= man.Shards {
		return nil, fmt.Errorf("shard: index %d out of range (manifest has %d shards)", index, man.Shards)
	}
	r := man.Ranges[index]
	global, err := openFile(filepath.Join(dir, man.Global.Name), &man.Global)
	if err != nil {
		return nil, err
	}
	files := []*store.RawFile{global}
	sf := global
	if r.File.Name != man.Global.Name {
		if sf, err = openFile(filepath.Join(dir, r.File.Name), &r.File); err != nil {
			global.Close()
			return nil, err
		}
		files = append(files, sf)
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
	g, err := assemble(files, secs)
	if err != nil {
		return nil, fmt.Errorf("shard: assembling shard %d of generation %d: %w", index, man.Generation, err)
	}
	g.Info = Info{Index: index, Count: man.Shards, UserLo: r.UserLo, UserHi: r.UserHi, TotalUsers: man.Users}
	if g.Model.NumUsers != r.UserHi-r.UserLo {
		g.Close()
		return nil, fmt.Errorf("shard: shard %d holds %d users, manifest says %d", index, g.Model.NumUsers, r.UserHi-r.UserLo)
	}
	return g, nil
}

// OpenWhole maps the bare v2 file at path, checks every payload CRC over
// that mapping and opens it as a one-shard group. A bare file is a whole
// model, so its document arrays are kept: a stream updater takes its base
// from the slot. Its errors are *fs.PathError values naming the file, with
// store.ErrNotV2 in the chain for a v1 or JSON file.
func OpenWhole(path string) (*Group, error) {
	rf, err := openFile(path, nil)
	if err != nil {
		return nil, err
	}
	g, err := assemble([]*store.RawFile{rf}, rf.Sections())
	if err != nil {
		return nil, &fs.PathError{Op: "shard: assembling", Path: path, Err: err}
	}
	g.Info = Info{Count: 1, UserHi: g.Model.NumUsers, TotalUsers: g.Model.NumUsers}
	return g, nil
}

// assemble builds a group's model from secs, which alias files. The group
// owns files: they are closed when assembly fails.
func assemble(files []*store.RawFile, secs []store.RawSection) (*Group, error) {
	g := &Group{files: files, Mapped: true}
	for _, f := range files {
		g.MappedBytes += f.SizeBytes()
		g.Mapped = g.Mapped && f.Mapped()
	}
	m, err := store.AssembleRawModel(secs)
	if err != nil {
		g.Close()
		return nil, err
	}
	g.Model = m
	return g, nil
}

// openFile maps the file at path and checks it over that mapping: against
// ent, when non-nil, its size and its section tags, sizes and CRCs as the
// manifest records them; and every payload's CRC, sections the served
// model leaves out included. Its errors are *fs.PathError values naming
// the file.
func openFile(path string, ent *FileEntry) (*store.RawFile, error) {
	rf, err := store.OpenRawFile(path)
	if err != nil {
		return nil, err
	}
	if ent != nil {
		err = matches(rf, *ent)
	}
	if err == nil {
		err = rf.Check()
	}
	if err != nil {
		rf.Close()
		return nil, &fs.PathError{Op: "shard: checking", Path: path, Err: err}
	}
	return rf, nil
}

// matches checks an opened file's size and section table against its
// manifest entry.
func matches(rf *store.RawFile, want FileEntry) error {
	if size := rf.SizeBytes(); size != want.Size {
		return fmt.Errorf("%d bytes, manifest says %d", size, want.Size)
	}
	sums := rf.Sums()
	if len(sums) != len(want.Sections) {
		return fmt.Errorf("%d sections, manifest says %d", len(sums), len(want.Sections))
	}
	for i, s := range sums {
		if w := want.Sections[i]; s != w {
			return fmt.Errorf("section %d is %q/%d/%08x, manifest says %q/%d/%08x", i, s.Tag, s.Size, s.CRC, w.Tag, w.Size, w.CRC)
		}
	}
	return nil
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
