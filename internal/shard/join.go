package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"

	"repro/internal/store"
)

const shapeLen = 64 // the v2 numeric payload shape header

// Join reassembles sharded generation gen from dir into a single v2
// snapshot at dstPath, byte-identical to the full snapshot of the model
// the group was written from (which a one-shard manifest of PublishWhole
// names as its only file): payload bytes are concatenated, never decoded.
// The full DIM is derived from the shard files' (see joinDims), Π from
// their rows, and the document arrays come verbatim from the state file; a
// global file that still carries a DIM, as groups written before DIM left
// it do, is read the same way. A manifest that names no state file cannot
// be joined. Every payload CRC is checked over the mapping Join reads, so
// a flipped byte is refused, not re-checksummed: the file is named by an
// *fs.PathError, and nothing is written.
func Join(dir string, gen uint64, dstPath string) error {
	man, err := ReadManifest(ManifestPath(dir, gen))
	if err != nil {
		return err
	}
	if man.State == nil {
		return fmt.Errorf("shard: generation %d's manifest names no state file (written while the document arrays rode in the shard files); it cannot be joined", gen)
	}
	opened := make(map[string]*store.RawFile, 2+man.Shards)
	defer func() {
		for _, f := range opened {
			f.Close()
		}
	}()
	// open maps and checks a file once, however often the manifest names it.
	open := func(name string) (*store.RawFile, error) {
		if f, ok := opened[name]; ok {
			return f, nil
		}
		f, err := openFile(filepath.Join(dir, name), nil)
		if err == nil {
			opened[name] = f
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
