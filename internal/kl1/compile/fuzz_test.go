package compile

import (
	"strings"
	"testing"

	"pimcache/internal/bench/programs"
)

// FuzzSource checks the whole front end never panics: Source returns an
// image, or an error labeled "parse:" or "compile:" by the stage that
// refused the program. Seeds are FuzzParse's and the six benchmark
// programs at their small scales; `go test` runs the seeds, `go test
// -fuzz=FuzzSource` explores further.
func FuzzSource(f *testing.F) {
	seeds := []string{
		"main.",
		"p(X) :- X > 0 | q(X).",
		"p([H|T], f(A, -3)) :- integer(H) | Y := H * 2 + A, r(Y, T).",
		"p(X, X) :- otherwise | true.",
		"s([P|Q], O) :- wait(P) | O = [P|O1], s(Q, O1).",
		"p :- true | X = [a,b|C], println(X).",
		"p( :-",
		"p(1)) .",
		"p :- q | r | s.",
		"% only a comment",
		"p(" + strings.Repeat("[", 50),
	}
	for _, b := range programs.AllWithExtras() {
		seeds = append(seeds, b.Source(b.SmallScale))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		im, err := Source(src)
		if err != nil {
			if msg := err.Error(); !strings.HasPrefix(msg, "parse: ") && !strings.HasPrefix(msg, "compile: ") {
				t.Fatalf("Source(%q): unlabeled error: %v", src, err)
			}
			return
		}
		if im == nil {
			t.Fatalf("Source(%q): no image and no error", src)
		}
	})
}
