package cluster

import (
	"fmt"
	"io"
	"path/filepath"

	"autosens/internal/wal"
)

// HandoffSegments copies every WAL segment from srcDir into dstDir,
// renumbering the copies past dstDir's newest segment so the destination
// directory remains a single replayable stream (its own history first,
// the handed-off history after). Returns how many segments were copied.
//
// This is the membership-change data path: when a node leaves (or a new
// node joins and takes over key ranges), the departing/predecessor node's
// segments are handed to the node now owning those users, which then
// re-warms its engine with Warm under live.Config.Owns — the predicate
// keeps exactly the handed-off records the new ring assigns to it and
// skips the rest, so over-shipping whole segments is safe, just not free. Neither
// directory needs quiescing on the destination side; the source should be
// sealed (its WAL closed) so the copy observes complete frames.
//
// Copies are synced before the function returns: a crash after handoff
// must not lose records that were durable on the source.
func HandoffSegments(fsys wal.FS, srcDir, dstDir string) (int, error) {
	// The source is sealed (its WAL closed), so every segment is handed
	// off; SealedSegments with an empty active name is exactly that, and
	// shares the compactor's definition of "safe to consume".
	srcSegs, err := wal.SealedSegments(fsys, srcDir, "")
	if err != nil {
		return 0, fmt.Errorf("cluster: list handoff source %s: %w", srcDir, err)
	}
	if len(srcSegs) == 0 {
		return 0, nil
	}
	if err := fsys.MkdirAll(dstDir); err != nil {
		return 0, fmt.Errorf("cluster: create handoff destination %s: %w", dstDir, err)
	}
	dstSegs, err := wal.Segments(fsys, dstDir)
	if err != nil {
		return 0, fmt.Errorf("cluster: list handoff destination %s: %w", dstDir, err)
	}
	next := 0
	for _, name := range dstSegs {
		if i, ok := wal.SegmentIndex(name); ok && i >= next {
			next = i + 1
		}
	}
	for _, name := range srcSegs {
		if err := copySegment(fsys, srcDir, name, dstDir, wal.SegmentName(next)); err != nil {
			return 0, err
		}
		next++
	}
	return len(srcSegs), nil
}

// copySegment streams one segment file, syncing the copy to stable
// storage before closing it.
func copySegment(fsys wal.FS, srcDir, srcName, dstDir, dstName string) error {
	src, err := fsys.Open(filepath.Join(srcDir, srcName))
	if err != nil {
		return fmt.Errorf("cluster: open handoff segment %s: %w", srcName, err)
	}
	defer src.Close()
	dst, err := fsys.Create(filepath.Join(dstDir, dstName))
	if err != nil {
		return fmt.Errorf("cluster: create handoff segment %s: %w", dstName, err)
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return fmt.Errorf("cluster: copy handoff segment %s: %w", srcName, err)
	}
	if err := dst.Sync(); err != nil {
		dst.Close()
		return fmt.Errorf("cluster: sync handoff segment %s: %w", dstName, err)
	}
	return dst.Close()
}
