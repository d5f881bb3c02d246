package wal

// The exported segment-file surface: cluster rebalancing moves segments
// between nodes' WAL directories, so the file-naming scheme that was an
// internal detail of recovery becomes a (minimal) public contract here.

// Segments lists dir's WAL segment files in replay order (ascending
// sequence number; names sort lexically because indices are fixed-width).
// Non-segment files are ignored, as recovery ignores them.
func Segments(fsys FS, dir string) ([]string, error) {
	if fsys == nil {
		fsys = OSFS()
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	segs := names[:0]
	for _, name := range names {
		if isSegment(name) {
			segs = append(segs, name)
		}
	}
	return segs, nil
}

// SealedSegments lists dir's sealed WAL segment files in replay order:
// every segment strictly older than active, which is the name of the
// WAL's current append target (its ActiveSegment). An empty active means
// the WAL is closed and every segment is sealed. This is the single
// definition of "sealed" shared by cluster handoff and the store
// compactor, so neither can ever consume the segment still being
// appended to.
func SealedSegments(fsys FS, dir, active string) ([]string, error) {
	segs, err := Segments(fsys, dir)
	if err != nil {
		return nil, err
	}
	if active == "" {
		return segs, nil
	}
	cut, ok := segIndex(active)
	if !ok {
		return segs, nil
	}
	sealed := segs[:0]
	for _, name := range segs {
		if i, ok := segIndex(name); ok && i < cut {
			sealed = append(sealed, name)
		}
	}
	return sealed, nil
}

// SegmentIndex parses the sequence number out of a segment file name,
// reporting false for names that are not segments.
func SegmentIndex(name string) (int, bool) { return segIndex(name) }
