package wal

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem surface the WAL touches. It exists so fault-
// injection tests can fail, short-write, or ENOSPC any operation on
// demand; production code uses OSFS. All paths are full paths (the WAL
// joins its directory itself).
type FS interface {
	// MkdirAll creates dir and parents as needed.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// ReadDir lists the file names (not full paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// Remove deletes name.
	Remove(name string) error
	// Rename atomically replaces newname with oldname (POSIX rename
	// semantics) — the install step of every write-tmp-then-rename
	// publication the storage layer performs.
	Rename(oldname, newname string) error
}

// File is the per-file surface: sequential reads or writes plus fsync.
type File interface {
	io.ReadWriteCloser
	// Sync flushes the file's data to stable storage.
	Sync() error
}

// osFS is the real filesystem.
type osFS struct{}

// OSFS returns the production FS backed by the os package.
func OSFS() FS { return osFS{} }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// Size reports name's length in bytes. It is not part of FS — decorators
// and fakes need not provide it — so callers assert for it and treat its
// absence as "unknown" (the cold tier only uses it as a presizing hint).
func (osFS) Size(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// join builds a path inside the WAL directory.
func join(dir, name string) string { return filepath.Join(dir, name) }
