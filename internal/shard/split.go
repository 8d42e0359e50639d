package shard

// Split: the offline (and test-harness) way into a sharded generation. It
// opens a v2 snapshot with OpenWhole, so every payload CRC is checked, and
// writes the model it serves through the Publisher's group path — the one
// writer of group files. Join(Split(f)) is therefore byte-identical to f
// for any file the current encoder (store.SaveV2) writes; sections the
// encoder does not know are dropped.

// SplitOptions configures Split.
type SplitOptions struct {
	// Shards is the shard count (required, ≥ 1).
	Shards int
}

// Split writes the v2 snapshot at srcPath into dir as sharded generation
// gen — the global file, the state file, Shards shard files (one shard
// included), then the manifest as the commit point — and returns the
// manifest. A source that fails its check is refused with an
// *fs.PathError naming it, before anything is written.
func Split(srcPath, dir string, gen uint64, opts SplitOptions) (*Manifest, error) {
	p, err := NewPublisher(dir, opts.Shards)
	if err != nil {
		return nil, err
	}
	g, err := OpenWhole(srcPath)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	return p.group(gen, g.Model, Delta{Full: true})
}
