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

	"repro/internal/store"
)

// userTags are the user-indexed sections that move to shard files.
var userTags = map[string]bool{
	store.TagPi:   true,
	store.TagDocC: true,
	store.TagDocZ: true,
	store.TagDocB: true,
}

// inGlobal reports whether a section belongs in the global file: all but
// the user-indexed sections and DIM, whose first word is the user count
// (each shard file carries its own, patched to its range).
func inGlobal(tag string) bool { return !userTags[tag] && tag != store.TagDims }

const shapeLen = 64 // the v2 numeric payload shape header

// sectionDims reads the leading shape words of a numeric payload.
func sectionDims(payload []byte, n int) ([]uint64, error) {
	if len(payload) < shapeLen {
		return nil, fmt.Errorf("shard: payload shorter than the shape header")
	}
	dims := make([]uint64, n)
	for i := range dims {
		dims[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	return dims, nil
}

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
	// Ranges pins the boundaries instead of planning them (the
	// publisher's stable-boundary path). UserLo/UserHi/DocLo/DocHi are
	// honored; File entries are ignored.
	Ranges []Range
}

// Split writes the v2 snapshot at srcPath into dir as sharded generation
// gen — the global file, Shards shard files, then the manifest as the
// commit point — and returns the manifest.
func Split(srcPath, dir string, gen uint64, opts SplitOptions) (*Manifest, error) {
	if opts.Ranges == nil && opts.Shards <= 0 {
		return nil, fmt.Errorf("shard: Split needs a shard count or pinned ranges")
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
	if !ok {
		return nil, fmt.Errorf("shard: %s has no Π section", srcPath)
	}
	piDims, err := sectionDims(piPayload, 2)
	if err != nil {
		return nil, err
	}
	users, cols := int(piDims[0]), int(piDims[1])
	docPayloads := map[string][]byte{}
	docs := -1
	for _, tag := range []string{store.TagDocC, store.TagDocZ, store.TagDocB} {
		p, ok := rf.Section(tag)
		if !ok {
			return nil, fmt.Errorf("shard: %s has no %q section", srcPath, tag)
		}
		dims, err := sectionDims(p, 1)
		if err != nil {
			return nil, err
		}
		if docs >= 0 && int(dims[0]) != docs {
			return nil, fmt.Errorf("shard: document arrays disagree on length (%d vs %d)", dims[0], docs)
		}
		docs = int(dims[0])
		docPayloads[tag] = p
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

	ranges := opts.Ranges
	if ranges == nil {
		ranges, err = PlanRanges(users, docs, opts.Shards, cols)
		if err != nil {
			return nil, err
		}
	} else if err := checkRanges(ranges, users, docs); err != nil {
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
		Docs:         docs,
		SectionOrder: order,
		Ranges:       make([]Range, len(ranges)),
	}

	// Global file: every global section verbatim, in source order.
	var globalSecs []store.RawSection
	for _, s := range secs {
		if inGlobal(s.Tag) {
			globalSecs = append(globalSecs, s)
		}
	}
	globalPath := GlobalPath(dir, gen)
	if err := store.WriteRawFile(globalPath, globalSecs); err != nil {
		return nil, err
	}
	if man.Global, err = fileEntry(globalPath); err != nil {
		return nil, err
	}

	cfgPayload, _ := rf.Section(store.TagConfig)
	piBody := piPayload[shapeLen:]
	for i, r := range ranges {
		lo, hi, dlo, dhi := r.UserLo, r.UserHi, r.DocLo, r.DocHi
		localDim := make([]byte, 32)
		copy(localDim, dimPayload)
		binary.LittleEndian.PutUint64(localDim, uint64(hi-lo))
		shardSecs := make([]store.RawSection, 0, 6)
		if cfgPayload != nil {
			shardSecs = append(shardSecs, store.RawSection{Tag: store.TagConfig, Payload: cfgPayload})
		}
		shardSecs = append(shardSecs,
			store.RawSection{Tag: store.TagDims, Payload: localDim},
			store.RawSection{Tag: store.TagPi, Payload: shapedSlice(
				[]uint64{uint64(hi - lo), uint64(cols)}, piBody[8*lo*cols:8*hi*cols])},
			store.RawSection{Tag: store.TagDocC, Payload: shapedSlice(
				[]uint64{uint64(dhi - dlo)}, docPayloads[store.TagDocC][shapeLen:][4*dlo:4*dhi])},
			store.RawSection{Tag: store.TagDocZ, Payload: shapedSlice(
				[]uint64{uint64(dhi - dlo)}, docPayloads[store.TagDocZ][shapeLen:][4*dlo:4*dhi])},
			store.RawSection{Tag: store.TagDocB, Payload: shapedSlice(
				[]uint64{uint64(dhi - dlo)}, docPayloads[store.TagDocB][shapeLen:][8*dlo:8*dhi])},
		)
		path := ShardPath(dir, gen, i)
		if err := store.WriteRawFile(path, shardSecs); err != nil {
			return nil, err
		}
		ent, err := fileEntry(path)
		if err != nil {
			return nil, err
		}
		man.Ranges[i] = Range{Index: i, UserLo: lo, UserHi: hi, DocLo: dlo, DocHi: dhi, File: ent}
	}
	if err := WriteManifest(ManifestPath(dir, gen), man); err != nil {
		return nil, err
	}
	return man, nil
}

// checkRanges validates pinned ranges against the model's dimensions.
func checkRanges(ranges []Range, users, docs int) error {
	wantU, wantD := 0, 0
	for i, r := range ranges {
		if r.UserLo != wantU || r.UserHi < r.UserLo || r.DocLo != wantD || r.DocHi < r.DocLo {
			return fmt.Errorf("shard: pinned range %d [%d,%d)/[%d,%d) does not tile the model", i, r.UserLo, r.UserHi, r.DocLo, r.DocHi)
		}
		wantU, wantD = r.UserHi, r.DocHi
	}
	if wantU != users || wantD != docs {
		return fmt.Errorf("shard: pinned ranges cover %d users / %d docs of %d / %d", wantU, wantD, users, docs)
	}
	return nil
}

// Join reassembles sharded generation gen from dir into a single v2
// snapshot at dstPath, byte-identical to the file the group was split
// from (or, for a published group, to the full snapshot published
// alongside it — which a one-shard manifest names as its only file). The full DIM is derived from the shard files' (see
// joinDims); a global file that still carries one, as groups written
// before DIM left it do, is read the same way.
func Join(dir string, gen uint64, dstPath string) error {
	man, err := ReadManifest(ManifestPath(dir, gen))
	if err != nil {
		return err
	}
	global, err := store.OpenRawFile(filepath.Join(dir, man.Global.Name))
	if err != nil {
		return err
	}
	defer global.Close()
	shards := make([]*store.RawFile, man.Shards)
	defer func() {
		for _, sf := range shards {
			if sf != nil {
				sf.Close()
			}
		}
	}()
	for i, r := range man.Ranges {
		if shards[i], err = store.OpenRawFile(filepath.Join(dir, r.File.Name)); err != nil {
			return err
		}
	}

	// concat rebuilds one user-indexed payload: total-length shape header
	// plus every shard's body window in range order.
	concat := func(tag string, dims []uint64, elem int) (store.RawSection, error) {
		var total int
		bodies := make([][]byte, man.Shards)
		for i, sf := range shards {
			p, ok := sf.Section(tag)
			if !ok {
				return store.RawSection{}, fmt.Errorf("shard: shard %d of generation %d has no %q section", i, gen, tag)
			}
			if len(p) < shapeLen {
				return store.RawSection{}, fmt.Errorf("shard: shard %d section %q shorter than the shape header", i, tag)
			}
			bodies[i] = p[shapeLen:]
			total += len(bodies[i])
		}
		out := make([]byte, shapeLen+total)
		for i, d := range dims {
			binary.LittleEndian.PutUint64(out[8*i:], d)
		}
		off := shapeLen
		for _, b := range bodies {
			off += copy(out[off:], b)
		}
		want := shapeLen + elem*elemCount(dims)
		if len(out) != want {
			return store.RawSection{}, fmt.Errorf("shard: section %q reassembles to %d bytes, want %d", tag, len(out), want)
		}
		return store.RawSection{Tag: tag, Payload: out}, nil
	}

	dim, err := joinDims(man, shards)
	if err != nil {
		return err
	}
	var cols uint64
	if p, ok := shards[0].Section(store.TagPi); ok && len(p) >= shapeLen {
		d, err := sectionDims(p, 2)
		if err != nil {
			return err
		}
		cols = d[1]
	} else {
		return fmt.Errorf("shard: shard 0 of generation %d has no Π section", gen)
	}

	out := make([]store.RawSection, 0, len(man.SectionOrder))
	for _, tag := range man.SectionOrder {
		var sec store.RawSection
		switch tag {
		case store.TagDims:
			sec = store.RawSection{Tag: tag, Payload: dim}
		case store.TagPi:
			s, err := concat(tag, []uint64{uint64(man.Users), cols}, 8)
			if err != nil {
				return err
			}
			sec = s
		case store.TagDocC, store.TagDocZ:
			s, err := concat(tag, []uint64{uint64(man.Docs)}, 4)
			if err != nil {
				return err
			}
			sec = s
		case store.TagDocB:
			s, err := concat(tag, []uint64{uint64(man.Docs)}, 8)
			if err != nil {
				return err
			}
			sec = s
		default:
			p, ok := global.Section(tag)
			if !ok {
				return fmt.Errorf("shard: global file of generation %d has no %q section", gen, tag)
			}
			sec = store.RawSection{Tag: tag, Payload: p}
		}
		out = append(out, sec)
	}
	return store.WriteRawFile(dstPath, out)
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

// elemCount multiplies shape words into an element count.
func elemCount(dims []uint64) int {
	n := 1
	for _, d := range dims {
		n *= int(d)
	}
	return n
}
