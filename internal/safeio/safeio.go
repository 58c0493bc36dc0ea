// Package safeio is the single atomic-write seam for every artifact
// the toolchain produces: traces, checkpoints, run manifests,
// baselines. The durability contract is all-or-nothing — a reader
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
// removed and the destination is untouched. The rename would replace
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
func WriteFile(path string, write func(io.Writer) error) (err error) {
	if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
		return fmt.Errorf("safeio: %s is not a regular file (mode %v); refusing to replace it", path, fi.Mode())
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("safeio: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("safeio: writing %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("safeio: sync %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("safeio: close %s: %w", path, err)
	}
	if err = os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("safeio: chmod %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("safeio: %w", err)
	}
	syncDir(dir)
	return nil
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
