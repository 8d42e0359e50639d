package shard

// Split and Join: the offline (and test-harness) halves of the format.
// Both operate at the raw-section level (store.RawFile) — payload bytes
// are sliced and concatenated, never decoded — so Join(Split(f)) is
// byte-identical to f for any v2 file written by this repo's encoder.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/store"
)

// userTags are the sections indexed by user or by document, which leave
// the global file: Π for the shard files, the document arrays
// (stateTagsList) for the state file.
var userTags = map[string]bool{
	store.TagPi:   true,
	store.TagDocC: true,
	store.TagDocZ: true,
	store.TagDocB: true,
}

// inGlobal reports whether a section belongs in the global file: all but
// userTags and DIM, whose first word is the user count (each shard file
// carries its own, patched to its range).
func inGlobal(tag string) bool { return !userTags[tag] && tag != store.TagDims }

const shapeLen = 64 // the v2 numeric payload shape header

// shapedSlice builds a numeric payload: a fresh 64-byte shape header over
// a copied body window.
func shapedSlice(dims []uint64, body []byte) []byte {
	out := make([]byte, shapeLen+len(body))
	for i, d := range dims {
		binary.LittleEndian.PutUint64(out[8*i:], d)
	}
	copy(out[shapeLen:], body)
	return out
}

// SplitOptions configures Split.
type SplitOptions struct {
	// Shards is the shard count (required, ≥ 1).
	Shards int
}

// Split writes the v2 snapshot at srcPath into dir as sharded generation
// gen — the global file, the state file, Shards shard files, then the
// manifest as the commit point — and returns the manifest.
func Split(srcPath, dir string, gen uint64, opts SplitOptions) (*Manifest, error) {
	if opts.Shards <= 0 {
		return nil, fmt.Errorf("shard: Split needs a positive shard count, not %d", opts.Shards)
	}
	rf, err := store.OpenRawFile(srcPath)
	if err != nil {
		return nil, err
	}
	defer rf.Close()

	secs := rf.Sections()
	order := make([]string, len(secs))
	for i, s := range secs {
		order[i] = s.Tag
	}
	piPayload, ok := rf.Section(store.TagPi)
	if !ok || len(piPayload) < shapeLen {
		return nil, fmt.Errorf("shard: %s has no Π section with a shape header", srcPath)
	}
	users, cols := int(binary.LittleEndian.Uint64(piPayload)), int(binary.LittleEndian.Uint64(piPayload[8:]))
	var globalSecs, stateSecs []store.RawSection
	for _, s := range secs {
		if slices.Contains(stateTagsList, s.Tag) {
			stateSecs = append(stateSecs, s)
		} else if inGlobal(s.Tag) {
			globalSecs = append(globalSecs, s)
		}
	}
	if len(stateSecs) != len(stateTagsList) {
		return nil, fmt.Errorf("shard: %s holds %d of the document arrays %v", srcPath, len(stateSecs), stateTagsList)
	}
	dimPayload, ok := rf.Section(store.TagDims)
	if !ok {
		return nil, fmt.Errorf("shard: %s has no dimension section", srcPath)
	}
	if len(dimPayload) != 32 {
		return nil, fmt.Errorf("shard: dimension section has length %d, want 32", len(dimPayload))
	}
	if dimUsers := int(binary.LittleEndian.Uint64(dimPayload)); dimUsers != users {
		return nil, fmt.Errorf("shard: DIM claims %d users but Π has %d rows", dimUsers, users)
	}

	ranges, err := PlanRanges(users, opts.Shards, cols)
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man := &Manifest{
		Version:      1,
		Generation:   gen,
		Shards:       len(ranges),
		Users:        users,
		SectionOrder: order,
		Ranges:       make([]Range, len(ranges)),
	}

	// Global and state files: their sections verbatim, in source order.
	write := func(path string, secs []store.RawSection) (FileEntry, error) {
		if err := store.WriteRawFile(path, secs); err != nil {
			return FileEntry{}, err
		}
		return fileEntry(path)
	}
	if man.Global, err = write(GlobalPath(dir, gen), globalSecs); err != nil {
		return nil, err
	}
	state, err := write(StatePath(dir, gen), stateSecs)
	if err != nil {
		return nil, err
	}
	man.State = &state

	cfgPayload, _ := rf.Section(store.TagConfig)
	piBody := piPayload[shapeLen:]
	for i, r := range ranges {
		lo, hi := r.UserLo, r.UserHi
		localDim := make([]byte, 32)
		copy(localDim, dimPayload)
		binary.LittleEndian.PutUint64(localDim, uint64(hi-lo))
		shardSecs := make([]store.RawSection, 0, 3)
		if cfgPayload != nil {
			shardSecs = append(shardSecs, store.RawSection{Tag: store.TagConfig, Payload: cfgPayload})
		}
		shardSecs = append(shardSecs,
			store.RawSection{Tag: store.TagDims, Payload: localDim},
			store.RawSection{Tag: store.TagPi, Payload: shapedSlice(
				[]uint64{uint64(hi - lo), uint64(cols)}, piBody[8*lo*cols:8*hi*cols])},
		)
		ent, err := write(ShardPath(dir, gen, i), shardSecs)
		if err != nil {
			return nil, err
		}
		man.Ranges[i] = Range{Index: i, UserLo: lo, UserHi: hi, File: ent}
	}
	if err := WriteManifest(ManifestPath(dir, gen), man); err != nil {
		return nil, err
	}
	return man, nil
}

// Join reassembles sharded generation gen from dir into a single v2
// snapshot at dstPath, byte-identical to the file the group was split
// from (or, for a published group, to the full snapshot published
// alongside it — which a one-shard manifest names as its only file). The
// full DIM is derived from the shard files' (see joinDims), Π from their
// rows, and the document arrays come verbatim from the state file; a
// global file that still carries a DIM, as groups written before DIM left
// it do, is read the same way. A manifest that names no state file cannot
// be joined.
func Join(dir string, gen uint64, dstPath string) error {
	man, err := ReadManifest(ManifestPath(dir, gen))
	if err != nil {
		return err
	}
	if man.State == nil {
		return fmt.Errorf("shard: generation %d's manifest names no state file (written while the document arrays rode in the shard files); it cannot be joined", gen)
	}
	files := make([]*store.RawFile, 0, 2+man.Shards)
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	open := func(name string) (*store.RawFile, error) {
		f, err := store.OpenRawFile(filepath.Join(dir, name))
		if err == nil {
			files = append(files, f)
		}
		return f, err
	}
	global, err := open(man.Global.Name)
	if err != nil {
		return err
	}
	state, err := open(man.State.Name)
	if err != nil {
		return err
	}
	shards := make([]*store.RawFile, man.Shards)
	for i, r := range man.Ranges {
		if shards[i], err = open(r.File.Name); err != nil {
			return err
		}
	}
	dim, err := joinDims(man, shards)
	if err != nil {
		return err
	}
	pi, err := joinPi(man, shards)
	if err != nil {
		return err
	}

	out := make([]store.RawSection, 0, len(man.SectionOrder))
	for _, tag := range man.SectionOrder {
		var p []byte
		switch {
		case tag == store.TagDims:
			p = dim
		case tag == store.TagPi:
			p = pi
		default:
			from, what := global, "global"
			if slices.Contains(stateTagsList, tag) {
				from, what = state, "state"
			}
			var ok bool
			if p, ok = from.Section(tag); !ok {
				return fmt.Errorf("shard: %s file of generation %d has no %q section", what, gen, tag)
			}
		}
		out = append(out, store.RawSection{Tag: tag, Payload: p})
	}
	return store.WriteRawFile(dstPath, out)
}

// joinPi rebuilds the full Π payload: a shape header of the manifest's
// user count by shard 0's column count, over every shard's rows in range
// order.
func joinPi(man *Manifest, shards []*store.RawFile) ([]byte, error) {
	var cols uint64
	bodies := make([][]byte, len(shards))
	total := 0
	for i, sf := range shards {
		p, ok := sf.Section(store.TagPi)
		if !ok || len(p) < shapeLen {
			return nil, fmt.Errorf("shard: shard %d of generation %d has no Π section", i, man.Generation)
		}
		if i == 0 {
			cols = binary.LittleEndian.Uint64(p[8:])
		}
		bodies[i] = p[shapeLen:]
		total += len(bodies[i])
	}
	if want := uint64(man.Users) * cols * 8; uint64(total) != want {
		return nil, fmt.Errorf("shard: section %q reassembles to %d bytes, want %d", store.TagPi, shapeLen+total, shapeLen+want)
	}
	out := make([]byte, shapeLen, shapeLen+total)
	binary.LittleEndian.PutUint64(out, uint64(man.Users))
	binary.LittleEndian.PutUint64(out[8:], cols)
	for _, b := range bodies {
		out = append(out, b...)
	}
	return out, nil
}

// joinDims rebuilds the full DIM payload from the shard files': word 0 is
// the manifest's user count, words 1–3 (vocabulary, buckets, attributes)
// are shard 0's. Every shard must carry its own range's user count as
// word 0 and the same words 1–3 — shards that disagree cannot come from
// one model.
func joinDims(man *Manifest, shards []*store.RawFile) ([]byte, error) {
	var full []byte
	for i, sf := range shards {
		p, ok := sf.Section(store.TagDims)
		if !ok || len(p) != 32 {
			return nil, fmt.Errorf("shard: shard %d of generation %d has no 32-byte dimension section", i, man.Generation)
		}
		r := man.Ranges[i]
		if got := binary.LittleEndian.Uint64(p); got != uint64(r.UserHi-r.UserLo) {
			return nil, fmt.Errorf("shard: shard %d DIM claims %d users, its range [%d,%d) holds %d",
				i, got, r.UserLo, r.UserHi, r.UserHi-r.UserLo)
		}
		if full == nil {
			full = bytes.Clone(p)
			binary.LittleEndian.PutUint64(full, uint64(man.Users))
		} else if !bytes.Equal(p[8:], full[8:]) {
			return nil, fmt.Errorf("shard: shard %d DIM words 1-3 %v disagree with shard 0's %v",
				i, dimWords(p), dimWords(full))
		}
	}
	return full, nil
}

// dimWords lists a DIM payload's words 1–3 for error messages.
func dimWords(p []byte) [3]uint64 {
	return [3]uint64{binary.LittleEndian.Uint64(p[8:]), binary.LittleEndian.Uint64(p[16:]), binary.LittleEndian.Uint64(p[24:])}
}
