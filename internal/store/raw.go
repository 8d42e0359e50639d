package store

// Raw v2 section access: the layer the snapshot sharder is built on.
//
// A v2 file is a section table plus independently CRC'd payloads, so a
// tool that rearranges sections between files (internal/shard's
// splitter/joiner) never needs to understand payload semantics — it
// slices and concatenates payload bytes and re-emits them through the
// same deterministic layout SaveV2 uses. This file exposes that level:
// open a v2 file as tagged payload byte slices (zero-copy, mmap-backed),
// write tagged payloads back out byte-identically to what the model
// encoder would produce, and assemble a core.Model from an arbitrary
// set of sections (the shard-group open path merges global and shard
// file sections before assembly).

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/core"
)

// Exported v2 section tags, for callers (internal/shard, tooling) that
// select, save or join section subsets. Values match the on-disk tags.
const (
	TagConfig = tagConfig
	TagDims   = tagDims
	TagPi     = tagPi
	TagTheta  = tagTheta
	TagPhi    = tagPhi
	TagEta    = tagEta
	TagNu     = tagNu
	TagPop    = tagPop
	TagXi     = tagXi
	TagDocC   = tagDocC
	TagDocZ   = tagDocZ
	TagDocB   = tagDocB
)

// RawSection is one tagged v2 payload, semantics-free. For sections read
// from an open RawFile the payload aliases the file mapping and must not
// be used after the RawFile is closed.
type RawSection struct {
	Tag     string
	Payload []byte
}

// RawFile is a v2 snapshot opened at the section level: the table is
// checksum-verified and each payload is exposed as a byte slice aliasing
// the read-only mapping (payload CRCs are NOT verified here, matching
// Open; run VerifyV2File first when integrity matters).
type RawFile struct {
	path      string
	data      []byte
	mapped    bool
	sections  []RawSection
	closeOnce sync.Once
	closeErr  error
}

// OpenRawFile maps the v2 snapshot at path and parses its section table.
func OpenRawFile(path string) (*RawFile, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: mapping %s: %w", path, err)
	}
	rf := &RawFile{path: path, data: data, mapped: mapped}
	if err := rf.parse(); err != nil {
		rf.Close()
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	return rf, nil
}

func (rf *RawFile) parse() error {
	entries, err := readV2Table(bytes.NewReader(rf.data), uint64(len(rf.data)))
	if err != nil {
		return err
	}
	rf.sections = make([]RawSection, len(entries))
	for i, ent := range entries {
		rf.sections[i] = RawSection{Tag: ent.tag, Payload: rf.data[ent.off : ent.off+ent.size : ent.off+ent.size]}
	}
	return nil
}

// Sections returns the file's sections in table order. The payloads alias
// the mapping.
func (rf *RawFile) Sections() []RawSection { return rf.sections }

// Section returns the payload of the named section, or false.
func (rf *RawFile) Section(tag string) ([]byte, bool) {
	for _, s := range rf.sections {
		if s.Tag == tag {
			return s.Payload, true
		}
	}
	return nil, false
}

// Path returns the file the sections were opened from.
func (rf *RawFile) Path() string { return rf.path }

// SizeBytes returns the size of the mapping backing the sections.
func (rf *RawFile) SizeBytes() int64 { return int64(len(rf.data)) }

// Mapped reports whether the sections alias a real kernel mapping
// (false on the aligned-copy fallback platforms).
func (rf *RawFile) Mapped() bool { return rf.mapped }

// Close releases the mapping; no payload slice may be touched afterwards.
func (rf *RawFile) Close() error {
	rf.closeOnce.Do(func() {
		data := rf.data
		rf.data, rf.sections = nil, nil
		if rf.mapped && data != nil {
			rf.closeErr = unmapFile(data)
		}
	})
	return rf.closeErr
}

// EncodeRawSections writes secs as a v2 snapshot in the given order,
// using the exact layout the model encoder produces (aligned offsets,
// table CRC, per-payload CRCs). Re-encoding the sections of an opened v2
// file reproduces that file byte for byte — the shard joiner's
// byte-identity guarantee rests on this.
func EncodeRawSections(w io.Writer, secs []RawSection) error {
	plan, err := rawPlan(secs)
	if err != nil {
		return err
	}
	return encodeTo(w, plan)
}

// rawPlan plans secs as they stand: each payload is its own emitter.
func rawPlan(secs []RawSection) ([]*v2section, error) {
	if len(secs) == 0 {
		return nil, fmt.Errorf("store: no sections to encode")
	}
	if len(secs) > maxV2Entries {
		return nil, fmt.Errorf("store: %d sections exceed the format's %d-section limit", len(secs), maxV2Entries)
	}
	plan := make([]*v2section, len(secs))
	for i := range secs {
		sec := secs[i]
		if len(sec.Tag) != 4 {
			return nil, fmt.Errorf("store: section tag %q is not 4 bytes", sec.Tag)
		}
		if uint64(len(sec.Payload)) > maxSectionBytes {
			return nil, fmt.Errorf("store: section %q needs %d payload bytes, above the format's %d-byte section limit",
				sec.Tag, len(sec.Payload), uint64(maxSectionBytes))
		}
		plan[i] = &v2section{
			tag:  sec.Tag,
			size: uint64(len(sec.Payload)),
			emit: func(s *v2sink) { s.raw(sec.Payload) },
		}
	}
	return plan, nil
}

// WriteRawFile writes secs to path as a v2 snapshot with the usual
// atomic rename discipline.
func WriteRawFile(path string, secs []RawSection) error {
	plan, err := rawPlan(secs)
	if err != nil {
		return err
	}
	return savePlan(path, plan)
}

// AssembleRawModel builds a model from an arbitrary section set (e.g.
// the merged sections of a shard group's global and user-shard files)
// through the same section decoder and checks as Open: numeric payloads
// are aliased in place where the host allows, so the payload slices must
// stay valid for the model's lifetime, and payload CRCs are not checked.
func AssembleRawModel(secs []RawSection) (*core.Model, error) {
	a := &assembly{}
	for _, sec := range secs {
		if err := a.section(sec.Tag, sec.Payload); err != nil {
			return nil, err
		}
	}
	return a.model()
}

// SectionSum is one section's identity in a file: tag, payload size and
// payload CRC — what a shard manifest records per file so a fetcher can
// cross-check a download against the manifest without re-reading the
// publisher's copy.
type SectionSum struct {
	Tag  string `json:"tag"`
	Size uint64 `json:"size"`
	CRC  uint32 `json:"crc"`
}

// FileSections reads only the header and section table of the v2 file at
// path and returns each section's identity plus the total file size —
// O(1) in the model size.
func FileSections(path string) ([]SectionSum, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	entries, err := readV2Table(f, uint64(fi.Size()))
	if err != nil {
		return nil, 0, fmt.Errorf("store: reading %s: %w", path, err)
	}
	sums := make([]SectionSum, len(entries))
	for i, ent := range entries {
		sums[i] = SectionSum{Tag: ent.tag, Size: ent.size, CRC: ent.crc}
	}
	return sums, fi.Size(), nil
}

// tagSet builds the subset-plan filter from a tag list.
func tagSet(tags []string) map[string]bool {
	want := make(map[string]bool, len(tags))
	for _, t := range tags {
		want[t] = true
	}
	return want
}

// SaveV2Subset writes only the named sections of m to path as a v2
// snapshot (canonical section order, independent of the order of tags),
// with SaveV2's atomic rename discipline. Requested matrix blocks must be
// non-nil, except POPF/XI which are skipped when absent, matching SaveV2.
func SaveV2Subset(path string, m *core.Model, tags []string) error {
	plan, err := v2PlanSubset(m, tagSet(tags))
	if err != nil {
		return err
	}
	return savePlan(path, plan)
}
