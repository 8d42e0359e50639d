// Package shard splits v2 model snapshots into per-user-range shard
// groups so a serving replica maps only the users it owns.
//
// A sharded generation is four kinds of files in one directory,
// described by a CRC'd manifest:
//
//	gen-%08d.shards.json        manifest: shard count, user range
//	                            boundaries, per-file names and section
//	                            checksums
//	gen-%08d.global.v2.snap     one v2 file with the community profiles:
//	                            CFG and Θ/Φ/η/ν (+ POPF/XI when present),
//	                            all rank and diffusion scoring needs. It
//	                            holds no DIM (its first word is the user
//	                            count), so it changes only when the
//	                            profiles do
//	gen-%08d.shard-%03d.v2.snap N v2 files, each holding one contiguous
//	                            user range's Π row slice, with CFG and a
//	                            DIM patched to the local user count
//	gen-%08d.state.v2.snap      one v2 file with the document arrays
//	                            DOCC/DOCZ/DOCB — Alg. 1's per-document
//	                            Gibbs state, which no query reads: only
//	                            Join needs it, and no replica fetches it
//
// Every file is an ordinary v2 container (store.OpenRawFile opens it
// unchanged). The manifest is how every published generation is
// announced and fetched: an unsharded publish writes a one-shard manifest
// whose global entry, state entry and only range all name the
// generation's full file (store.GenPath), so a fully replicated fleet is
// shard 0 of 1 on the same fetch path. Readers resolve files from the
// entries' names, which DecodeManifest accepts only as the generation's
// own group names (or, with one shard, its full-file name) — a manifest
// is outside input.
//
// Publisher writes every group file. Streaming, it emits a sharded
// generation next to each full one, hard-linking the global file on every
// fold-in publish, the shard files whose Π rows did not change and the
// state file while the document arrays stay the previous model's — the
// O(changed) property at the file level. Split writes a checked v2
// snapshot's model through the same path; Join checks every file it reads
// and reassembles the current encoder's full file byte-identically,
// taking the full DIM from shard 0's with the manifest's user count and
// the document arrays from the state file. Boundaries come from a
// weight-balancing pass over per-user Π row bytes (PlanRanges). OpenGroup
// mmaps a global+shard pair, checks each file against its manifest entry
// over that mapping, and assembles a servable partial model whose
// mapped-byte cost is ~(1/N of Π + the global sections).
package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/store"
)

// Naming: the zero-padded generation keeps lexical and publish order
// identical, mirroring store's gen-%08d.v2.snap convention.
const (
	manifestFormat = "gen-%08d.shards.json"
	globalFormat   = "gen-%08d.global.v2.snap"
	shardFormat    = "gen-%08d.shard-%03d.v2.snap"
	stateFormat    = "gen-%08d.state.v2.snap"
)

// ManifestPath names generation gen's shard manifest under dir.
func ManifestPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf(manifestFormat, gen))
}

// GlobalPath names generation gen's global-section file under dir.
func GlobalPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf(globalFormat, gen))
}

// ShardPath names shard k of generation gen under dir.
func ShardPath(dir string, gen uint64, k int) string {
	return filepath.Join(dir, fmt.Sprintf(shardFormat, gen, k))
}

// StatePath names generation gen's document-array file under dir.
func StatePath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf(stateFormat, gen))
}

// ParseManifestName extracts the generation from a shard-manifest file
// name (base name, not a path), reporting false for anything else.
func ParseManifestName(name string) (uint64, bool) {
	var gen uint64
	if _, err := fmt.Sscanf(name, "gen-%d.shards.json", &gen); err != nil || gen == 0 {
		return 0, false
	}
	if fmt.Sprintf(manifestFormat, gen) != name {
		return 0, false
	}
	return gen, true
}

// ScanManifests lists the sharded generations present in dir, ascending.
// A missing directory is an empty listing.
func ScanManifests(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: scanning %s: %w", dir, err)
	}
	var gens []uint64
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if gen, ok := ParseManifestName(ent.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// FileEntry identifies one file of a shard group: its base name, size,
// and every section's tag/size/CRC — enough for OpenGroup to check a
// downloaded copy end-to-end against the manifest alone.
type FileEntry struct {
	Name     string             `json:"name"`
	Size     int64              `json:"size"`
	Sections []store.SectionSum `json:"sections"`
}

// SameContent reports whether two entries describe the same bytes under
// possibly different names: equal size and equal section tags, sizes and
// CRCs.
func (e FileEntry) SameContent(o FileEntry) bool {
	return e.Size == o.Size && slices.Equal(e.Sections, o.Sections)
}

// Range is one shard's slice of the model: users [UserLo,UserHi) own the
// Π rows File holds.
type Range struct {
	Index  int       `json:"index"`
	UserLo int       `json:"user_lo"`
	UserHi int       `json:"user_hi"`
	File   FileEntry `json:"file"`
}

// Manifest describes one sharded generation. It is the commit point of a
// sharded publish: the global, state and shard files are written first,
// the manifest last, so a manifest that parses always names complete
// files.
type Manifest struct {
	Version    int    `json:"version"`
	Generation uint64 `json:"generation"`
	Shards     int    `json:"shards"`
	Users      int    `json:"users"`
	// SectionOrder is the source file's section order, which Join
	// reproduces for byte-identity.
	SectionOrder []string  `json:"section_order"`
	Global       FileEntry `json:"global"`
	// State names the file holding the document arrays. Manifests
	// written while the arrays still rode in the shard files have none:
	// they open, but do not join.
	State  *FileEntry `json:"state,omitempty"`
	Ranges []Range    `json:"ranges"`
}

// Owner returns the shard index owning user u, or -1 when u is outside
// every range.
func (man *Manifest) Owner(u int) int {
	for _, r := range man.Ranges {
		if u >= r.UserLo && u < r.UserHi {
			return r.Index
		}
	}
	return -1
}

// Info is the shard identity a serving snapshot carries and a replica
// advertises on /healthz: which contiguous user range of how many total
// users this process owns.
type Info struct {
	Index      int `json:"index"`
	Count      int `json:"count"`
	UserLo     int `json:"userLo"`
	UserHi     int `json:"userHi"`
	TotalUsers int `json:"totalUsers"`
}

// Owns reports whether user u falls inside the owned range.
func (in *Info) Owns(u int) bool { return u >= in.UserLo && u < in.UserHi }

// manifestMagic is the first line of a manifest file; the hex field is
// the IEEE CRC32 of the JSON payload that follows, so a torn write can
// never be adopted.
const manifestMagic = "CPDSHARDS1"

// EncodeManifest writes man as a CRC'd manifest document.
func EncodeManifest(w io.Writer, man *Manifest) error {
	payload, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encoding manifest: %w", err)
	}
	if _, err := fmt.Fprintf(w, "%s %08x\n", manifestMagic, crc32.ChecksumIEEE(payload)); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// DecodeManifest parses and CRC-verifies a manifest document.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("shard: manifest missing header line")
	}
	var crc uint32
	if _, err := fmt.Sscanf(string(raw[:nl]), manifestMagic+" %08x", &crc); err != nil {
		return nil, fmt.Errorf("shard: not a shard manifest")
	}
	payload := raw[nl+1:]
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("shard: manifest checksum mismatch (%08x, stored %08x)", got, crc)
	}
	var man Manifest
	if err := json.Unmarshal(payload, &man); err != nil {
		return nil, fmt.Errorf("shard: decoding manifest: %w", err)
	}
	if err := man.validate(); err != nil {
		return nil, err
	}
	return &man, nil
}

// validate rejects manifests whose ranges do not tile [0,Users)
// contiguously, or whose entries name any file but their own — the
// invariants every consumer leans on.
func (man *Manifest) validate() error {
	if man.Shards <= 0 || len(man.Ranges) != man.Shards {
		return fmt.Errorf("shard: manifest claims %d shards with %d ranges", man.Shards, len(man.Ranges))
	}
	if err := tileUsers(man.Ranges, man.Users); err != nil {
		return err
	}
	// Readers join the names to a directory, so each must be this
	// generation's own file for its role: no path, no other generation.
	own := func(name, groupName string) bool {
		return name == groupName || man.Shards == 1 && name == filepath.Base(store.GenPath("", man.Generation))
	}
	if !own(man.Global.Name, fmt.Sprintf(globalFormat, man.Generation)) {
		return fmt.Errorf("shard: global entry names %q", man.Global.Name)
	}
	if man.State != nil && !own(man.State.Name, fmt.Sprintf(stateFormat, man.Generation)) {
		return fmt.Errorf("shard: state entry names %q", man.State.Name)
	}
	for i, r := range man.Ranges {
		if r.Index != i {
			return fmt.Errorf("shard: range %d carries index %d", i, r.Index)
		}
		if !own(r.File.Name, fmt.Sprintf(shardFormat, man.Generation, i)) {
			return fmt.Errorf("shard: range %d names %q", i, r.File.Name)
		}
	}
	return nil
}

// tileUsers checks that ranges cover users [0,users) contiguously in
// order.
func tileUsers(ranges []Range, users int) error {
	want := 0
	for i, r := range ranges {
		if r.UserLo != want || r.UserHi < r.UserLo {
			return fmt.Errorf("shard: range %d [%d,%d) does not tile the users", i, r.UserLo, r.UserHi)
		}
		want = r.UserHi
	}
	if want != users {
		return fmt.Errorf("shard: ranges cover %d users of %d", want, users)
	}
	return nil
}

// WriteManifest commits man to path through store.WriteFileAtomic, whose
// directory fsync makes the generation's files and links durable with it.
func WriteManifest(path string, man *Manifest) error {
	return store.WriteFileAtomic(path, func(f *os.File) error { return EncodeManifest(f, man) })
}

// ReadManifest reads and verifies the manifest at path.
func ReadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	man, err := DecodeManifest(f)
	if err != nil {
		return nil, fmt.Errorf("shard: %s: %w", path, err)
	}
	return man, nil
}

// fileEntry builds the manifest entry for a written group file from its
// section table alone (O(1) in the model size).
func fileEntry(path string) (FileEntry, error) {
	sums, size, err := store.FileSections(path)
	if err != nil {
		return FileEntry{}, err
	}
	return FileEntry{Name: filepath.Base(path), Size: size, Sections: sums}, nil
}
