package safeio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func TestWriteFileCreatesAndReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.bin")
	if err := WriteFileBytes(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "one" {
		t.Fatalf("content %q, want %q", got, "one")
	}
	if err := WriteFileBytes(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "two" {
		t.Fatalf("content %q, want %q", got, "two")
	}
}

// TestWriteFileFailureLeavesOldContent is the durability contract: a
// failed write must leave the previous file byte-identical and must
// not leak its temporary sibling.
func TestWriteFileFailureLeavesOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.bin")
	if err := WriteFileBytes(path, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("torn write")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "half-writ") // partial content that must never surface
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want wrapped %v", err, boom)
	}
	if got, _ := os.ReadFile(path); string(got) != "durable" {
		t.Fatalf("old content clobbered: %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leaked temp file %s", e.Name())
		}
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	err := WriteFileBytes(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x"))
	if err == nil {
		t.Fatal("want error for missing directory")
	}
}

// TestWriteFileRefusesNonRegularTarget pins the guard against replacing
// a device, FIFO or directory with a regular file: the write fails with
// an error naming the path and its mode, the target keeps its type, and
// no temporary sibling is left behind.
func TestWriteFileRefusesNonRegularTarget(t *testing.T) {
	dir := t.TempDir()
	fifo := filepath.Join(dir, "pipe")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Fatalf("mkfifo: %v", err)
	}
	err := WriteFileBytes(fifo, []byte("x"))
	if err == nil || !strings.Contains(err.Error(), fifo) || !strings.Contains(err.Error(), "not a regular file") {
		t.Fatalf("error %v, want a refusal naming %s", err, fifo)
	}
	fi, err := os.Lstat(fifo)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode()&os.ModeNamedPipe == 0 {
		t.Errorf("target mode is %v after the refused write, want a FIFO", fi.Mode())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leaked temp file %s", e.Name())
		}
	}

	if err := WriteFileBytes(dir, []byte("x")); err == nil || !strings.Contains(err.Error(), "not a regular file") {
		t.Errorf("writing over a directory: %v, want a refusal", err)
	}
}
