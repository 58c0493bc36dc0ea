// Package safeio is the single atomic-write seam for every artifact
// the toolchain produces: traces, checkpoints, run manifests,
// baselines, telemetry timelines. The durability contract is all-or-nothing — a reader
// either sees the complete previous file or the complete new one,
// never a torn prefix — which is what makes crash-safe checkpointing
// possible: a kill mid-checkpoint leaves the previous checkpoint
// intact and resumable.
//
// The mechanism is the classic write-temp → fsync → rename sequence:
// the new content is written to a unique temporary file in the
// destination's directory (same filesystem, so the rename is atomic),
// fsynced so the data is durable before it becomes visible, then
// renamed over the destination. On any error the temporary file is
// removed and the destination is untouched. WriteFile runs the sequence
// for content written in one call; Create hands it out as a File for
// content a run streams out as it goes. The rename would replace
// whatever the destination is, so a target that exists and is not a
// regular file (a device such as /dev/null, a FIFO, a directory) is
// refused before anything is written.
package safeio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with the bytes write produces.
// write receives a buffered-enough *os.File; it must not assume the
// file's name is path (it is a temporary sibling until the final
// rename). If write (or any durability step) fails, path is left
// exactly as it was. A path that exists but is not a regular file is
// refused with an error naming it and its mode, and nothing is created.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	defer f.Discard()
	if err := write(f.File); err != nil {
		return fmt.Errorf("safeio: writing %s: %w", path, err)
	}
	return f.Commit()
}

// File is a replacement for a path, written while a run streams it out
// (a telemetry timeline, say) rather than in one call: writes go to the
// temporary sibling, Commit makes it durable and renames it over the
// path, and Discard removes it, leaving the path exactly as it was.
type File struct {
	*os.File
	path string
	done bool // committed or discarded
}

// Create starts a File that will replace path. A path that exists but is
// not a regular file is refused with an error naming it and its mode,
// and nothing is created.
func Create(path string) (*File, error) {
	if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("safeio: %s is not a regular file (mode %v); refusing to replace it", path, fi.Mode())
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("safeio: %w", err)
	}
	return &File{File: tmp, path: path}, nil
}

// Commit syncs the written bytes and renames them over the path. If any
// step fails, the temporary file is removed and the path is untouched.
func (f *File) Commit() (err error) {
	if f.done {
		return fmt.Errorf("safeio: %s already committed or discarded", f.path)
	}
	defer func() {
		if err != nil {
			f.Discard()
		}
	}()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("safeio: sync %s: %w", f.path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("safeio: close %s: %w", f.path, err)
	}
	if err := os.Chmod(f.Name(), 0o644); err != nil {
		return fmt.Errorf("safeio: chmod %s: %w", f.path, err)
	}
	if err := os.Rename(f.Name(), f.path); err != nil {
		return fmt.Errorf("safeio: %w", err)
	}
	f.done = true
	syncDir(filepath.Dir(f.path))
	return nil
}

// Discard removes the temporary file, leaving the path as it was. It is
// a no-op after Commit, so a writer can defer it to cover every exit.
func (f *File) Discard() {
	if f.done {
		return
	}
	f.done = true
	f.Close()
	os.Remove(f.Name())
}

// WriteFileBytes is WriteFile for callers that already hold the full
// content in memory.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// syncDir makes the rename itself durable by fsyncing the directory.
// Best-effort: some filesystems (and platforms) refuse to fsync
// directories, and the rename's atomicity does not depend on it —
// only the crash-durability of the *new name*, which matters less
// than never exposing a torn file.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
