// Package durable makes the engine's materialized state crash-safe: a
// write-ahead changelog of realized base-relation deltas (length-prefixed,
// CRC32C-checksummed records with torn-tail truncation on open) plus
// periodic snapshots of the full incremental fixpoint — base and derived
// relations alike — so recovery loads the latest snapshot, replays the
// changelog suffix through datalog.Incremental.Apply, and resumes
// incremental maintenance instead of re-deriving from scratch (DESIGN.md
// §10).
//
// All file access goes through the narrow FS interface so the crash-point
// fault-injection harness (FaultFS) can kill the "process" after an exact
// number of written bytes or metadata operations, leaving torn files behind
// exactly as a real crash would.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the file layer the store runs on: a flat namespace of files inside
// one durability directory. Implementations: DirFS (the real filesystem)
// and FaultFS (crash injection for the recovery harness).
type FS interface {
	// ReadFile returns the named file's contents, or an error satisfying
	// os.IsNotExist when absent.
	ReadFile(name string) ([]byte, error)
	// Create truncates-or-creates the named file for writing.
	Create(name string) (File, error)
	// OpenAppend opens the named file for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Truncate cuts the named file to size bytes (torn-tail repair).
	Truncate(name string, size int64) error
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes the named file; absent files are not an error.
	Remove(name string) error
	// SyncDir flushes directory metadata (created/renamed entries) so a
	// committed rename survives power loss.
	SyncDir() error
}

// File is the writable handle subset the store needs.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// dirFS is the production FS: plain os files under one directory.
type dirFS struct {
	dir string
}

// DirFS returns an FS rooted at dir, creating the directory if needed.
func DirFS(dir string) (FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &dirFS{dir: dir}, nil
}

func (f *dirFS) path(name string) string { return filepath.Join(f.dir, name) }

func (f *dirFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(f.path(name)) }

func (f *dirFS) Create(name string) (File, error) {
	return os.OpenFile(f.path(name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (f *dirFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(f.path(name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (f *dirFS) Truncate(name string, size int64) error { return os.Truncate(f.path(name), size) }

func (f *dirFS) Rename(oldname, newname string) error {
	return os.Rename(f.path(oldname), f.path(newname))
}

func (f *dirFS) Remove(name string) error {
	err := os.Remove(f.path(name))
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

func (f *dirFS) SyncDir() error {
	d, err := os.Open(f.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
